open Cm_util
open Eventsim
open Netsim
module Spec = Cm_spec.Spec
module Check = Cm_spec.Check
module Build = Cm_spec.Build
module Launch = Cm_spec.Launch

(* CDN edge: two edge servers, each with ~a thousand access clients
   behind a shared 100 Mbit/s trunk.  A small baseline population
   fetches steadily from t=0; at t=2 s a flash crowd — every remaining
   client — piles on within one second.  The interesting outputs are the
   latency split (baseline vs. crowd) and the trunk's queue behaviour.
   CMs live at the data senders, the edge servers: each aggregates
   congestion state across all of its clients' connections, while the
   clients' tiny requests go out on stock TCP. *)

let n_per_server = 1024
let n_baseline = 64
let object_bytes = 50 * 1024
let crowd_start = Time.sec 2.
let duration = Time.sec 20.
let servers = [ "s0"; "s1" ]

let spec =
  let all i = List.init n_per_server (fun j -> Spec.client_name ~server:i ~index:j ()) in
  let baseline i = List.filteri (fun j _ -> j < n_baseline) (all i) in
  let crowd i = List.filteri (fun j _ -> j >= n_baseline) (all i) in
  let fetch = Spec.web_fetch ~object_bytes ~count:3 ~gap:(Time.ms 600) in
  let one_fetch = Spec.web_fetch ~object_bytes ~count:1 ~gap:(Time.ms 600) in
  Spec.(
    par
      [
        par (List.map node servers);
        cm servers;
        clients ~n:n_per_server ~per:servers ~bw:4e6 ~lat:(Time.ms 5) ~queue:50
          ~trunk_bw:100e6 ~trunk_lat:(Time.ms 2) ~trunk_queue:200 ();
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

type cohort = {
  c_name : string;
  c_clients : int;
  c_done : int;  (** Clients whose whole fetch sequence finished. *)
  c_fetches : int;
  c_lat_mean_s : float;
  c_lat_p50_s : float;
  c_lat_p95_s : float;
  c_lat_max_s : float;
}

type result = { r_cohorts : cohort list; r_trunks : (string * Link.stats) list }

let percentile sorted p =
  match Array.length sorted with
  | 0 -> 0.
  | n -> sorted.(Stdlib.min (n - 1) (int_of_float (p *. float_of_int n)))

let cohort_of (r : Launch.running) =
  let lats =
    Array.to_list r.Launch.outcomes
    |> List.concat_map (function
         | Launch.Fetched { fetches; _ } ->
             List.map (fun (f : Cm_apps.Web.fetch_result) -> Time.to_float_s f.Cm_apps.Web.duration) fetches
         | _ -> [])
  in
  let sorted = Array.of_list lats in
  Array.sort compare sorted;
  let n = Array.length sorted in
  {
    c_name = r.Launch.rg.Check.g_name;
    c_clients = Array.length r.Launch.outcomes;
    c_done = Launch.done_count r;
    c_fetches = n;
    c_lat_mean_s = (if n = 0 then 0. else Array.fold_left ( +. ) 0. sorted /. float_of_int n);
    c_lat_p50_s = percentile sorted 0.5;
    c_lat_p95_s = percentile sorted 0.95;
    c_lat_max_s = (if n = 0 then 0. else sorted.(n - 1));
  }

let run params =
  Exp_common.with_system params @@ fun sys ->
  let engine = Exp_common.engine sys in
  let rng = Rng.create ~seed:params.Exp_common.seed in
  let ir = Check.elaborate_exn spec in
  let net = Build.instantiate ~rng engine ir in
  let trunk_names = List.mapi (fun i s -> Printf.sprintf "%s->cr%d" s i) servers in
  Exp_common.watch sys ~links:(List.map (fun n -> (n, Build.link net n)) trunk_names) ();
  let running = Launch.run net () in
  Engine.run_for engine duration;
  {
    r_cohorts = List.map cohort_of running;
    r_trunks = List.map (fun n -> (n, Link.stats (Build.link net n))) trunk_names;
  }

let to_json params r =
  let open Exp_common.Json in
  Obj
    [
      ("seed", Int params.Exp_common.seed);
      ("clients_per_server", Int n_per_server);
      ("object_bytes", Int object_bytes);
      ("crowd_start_s", Float (Time.to_float_s crowd_start));
      ( "cohorts",
        List
          (List.map
             (fun c ->
               Obj
                 [
                   ("name", Str c.c_name);
                   ("clients", Int c.c_clients);
                   ("done", Int c.c_done);
                   ("fetches", Int c.c_fetches);
                   ("latency_mean_s", Float c.c_lat_mean_s);
                   ("latency_p50_s", Float c.c_lat_p50_s);
                   ("latency_p95_s", Float c.c_lat_p95_s);
                   ("latency_max_s", Float c.c_lat_max_s);
                 ])
             r.r_cohorts) );
      ( "trunks",
        List
          (List.map
             (fun (name, (s : Link.stats)) ->
               Obj
                 [
                   ("link", Str name);
                   ("delivered_pkts", Int s.Link.delivered_pkts);
                   ("queue_drops", Int s.Link.queue_drops);
                 ])
             r.r_trunks) );
    ]

let print params r =
  Exp_common.print_header
    "CDN edge: flash crowd over two edge servers, spec-DSL authored (JSON)";
  Exp_common.print_row (Exp_common.Json.to_string (to_json params r))
