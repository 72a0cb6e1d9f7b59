(* flash_crowd: the cdn_edge system, a 2050-node spec-DSL topology.

   Two edge servers behind 100 Mbit/s trunks, each with 1024 access
   clients; 64 per server fetch three 50 KiB objects from t=0 and the
   other 960 pile on with one fetch each at the flash crowd (t≈2 s),
   over 20 s of virtual time.  The servers run TCP/CM, about a thousand
   connections per CM.  Spec elaboration and instantiation, host demux
   over thousands of connections, connection set-up and teardown, CM
   open/close churn, drop-tail overflow on the trunks and RTO/TIME-WAIT
   timers beyond the wheel's horizon carry the load.  The links are
   built inside [Build], so this workload has spec and run_for spans and
   counters only.  Unit of work: one packet delivered on any link.  The
   seed shifts the crowd's start by up to 99 ms. *)

open Cm_util
open Netsim
module Spec = Cm_spec.Spec
module Check = Cm_spec.Check
module Build = Cm_spec.Build
module Launch = Cm_spec.Launch

let n_per_server = 1024
let n_baseline = 64
let object_bytes = 50 * 1024
let duration_s = 20
let servers = [ "s0"; "s1" ]

let spec ~crowd_start =
  let all i = List.init n_per_server (fun j -> Spec.client_name ~server:i ~index:j ()) in
  let baseline i = List.filteri (fun j _ -> j < n_baseline) (all i) in
  let crowd i = List.filteri (fun j _ -> j >= n_baseline) (all i) in
  let fetch = Spec.web_fetch ~object_bytes ~count:3 ~gap:(Time.ms 600) in
  let one_fetch = Spec.web_fetch ~object_bytes ~count:1 ~gap:(Time.ms 600) in
  Spec.(
    par
      [
        par (List.map node servers);
        clients ~n:n_per_server ~per:servers ~bw:4e6 ~lat:(Time.ms 5) ~queue:50 ~trunk_bw:100e6
          ~trunk_lat:(Time.ms 2) ~trunk_queue:200 ();
        par
          (List.mapi
             (fun i s ->
               par
                 [
                   flows ~name:("baseline-" ^ s) ~src:(baseline i) ~dst:s ~port:80 ~app:fetch
                     ~stagger:(Time.ms 15) ();
                   flows ~name:("crowd-" ^ s) ~src:(crowd i) ~dst:s ~port:80 ~app:one_fetch
                     ~start:crowd_start ~stagger:(Time.ms 1) ();
                 ])
             servers);
      ])

let cohort (r : Launch.running) =
  let lats =
    Array.to_list r.Launch.outcomes
    |> List.concat_map (function
         | Launch.Fetched { fetches; _ } ->
             List.map (fun (f : Cm_apps.Web.fetch_result) -> f.Cm_apps.Web.duration) fetches
         | _ -> [])
    |> Array.of_list
  in
  Array.sort compare lats;
  let n = Array.length lats in
  let pct q = if n = 0 then 0 else lats.(min (n - 1) (int_of_float (q *. float_of_int n))) in
  Json.Obj
    [
      ("name", Json.Str r.Launch.rg.Check.g_name);
      ("clients", Json.Int (Array.length r.Launch.outcomes));
      ("done", Json.Int (Launch.done_count r));
      ("fetches", Json.Int n);
      ("latency_p50_ns", Json.Int (pct 0.5));
      ("latency_p95_ns", Json.Int (pct 0.95));
      ("latency_max_ns", Json.Int (if n = 0 then 0 else lats.(n - 1)));
    ]

let setup tr ~seed =
  let rng = Rng.create ~seed in
  let crowd_start = Time.add (Time.sec 2.) (Time.ms (Rng.int rng 100)) in
  let engine = Wl.engine tr in
  let ir = Probe.span tr Probe.Spec_elaborate (fun () -> Check.elaborate_exn (spec ~crowd_start)) in
  let net = Probe.span tr Probe.Spec_build (fun () -> Build.instantiate ~rng engine ir) in
  (* CMs live at the data senders: the edge servers *)
  let cms = ref [] in
  let server_hosts = List.map (Build.host net) servers in
  let driver_for host =
    match List.assq_opt host !cms with
    | Some cm -> Some (Tcp.Conn.Cm_driven cm)
    | None when List.memq host server_hosts ->
        let cm = Cm.create engine () in
        Cm.attach cm host;
        cms := (host, cm) :: !cms;
        Some (Tcp.Conn.Cm_driven cm)
    | None -> None
  in
  let running = Probe.span tr Probe.Spec_launch (fun () -> Launch.run net ~driver_for ()) in
  let run () =
    for _ = 1 to duration_s do
      Wl.run_for tr engine (Time.sec 1.)
    done
  in
  let links = Array.to_list net.Build.links in
  let hosts =
    Array.to_list net.Build.impls
    |> List.filter_map (function Build.Host_impl h -> Some h | Build.Router_impl _ -> None)
  in
  let finish () =
    let problems =
      List.filter_map
        (fun (r : Launch.running) ->
          let clients = Array.length r.Launch.outcomes and finished = Launch.done_count r in
          if finished = clients then None
          else
            Some (Printf.sprintf "%s: %d of %d fetch sequences unfinished" r.Launch.rg.Check.g_name
                    (clients - finished) clients))
        running
    in
    Wl.outcome
      ~delivered:(Wl.sum (fun l -> (Link.stats l).Link.delivered_pkts) links)
      ~engines:[ engine ] ~links ~hosts
      ~cms:(List.rev_map snd !cms)
      ~extra:[ ("spec.nodes", Array.length ir.Check.ir_nodes); ("spec.links", Array.length ir.Check.ir_edges) ]
      ~results:[ ("cohorts", Json.List (List.map cohort running)) ]
      ~problems ()
  in
  { Wl.units = None; run; finish }

let workload = { Wl.name = "flash_crowd"; setup }
