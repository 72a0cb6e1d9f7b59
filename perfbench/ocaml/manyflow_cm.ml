(* manyflow_cm: the scale family's closed loop at N=4096, weighted stride.

   4096 flows over 128 destination macroflows run request → grant →
   notify → update cycles straight against Cm's public API over a
   synthetic ~2 ms path; every 50th cycle reports a transient loss, and
   every 16th flow closes and reopens half-way through.  No packets, links
   or TCP: the CM's scheduler, grant batches, flow directory and teardown
   path do the work, over a working set larger than the cache.  Unit of
   work: one CM grant.  The seed draws the per-flow path delays. *)

open Cm_util
open Eventsim
open Netsim

let flows = 4096
let flows_per_mf = 32
let rounds = 96
let mtu = 1448

type fstate = {
  mutable fid : int;
  rtt : Time.span;
  mutable left : int;
  mutable churned : bool;
  mutable req_at : Time.t;
  mutable update : unit -> unit;
}

let setup tr ~seed =
  let engine = Wl.engine tr in
  let cm = Cm.create engine ~mtu ~scheduler:Cm.Scheduler.weighted () in
  let dests = flows / flows_per_mf in
  let rng = Rng.create ~seed in
  let nil = fun () -> () in
  let st =
    Array.init flows (fun _ ->
        {
          fid = -1;
          rtt = Time.add (Time.ms 2) (Time.us (Rng.int rng 500));
          left = rounds;
          churned = false;
          req_at = Time.zero;
          update = nil;
        })
  in
  let lats = Array.make (flows * rounds) 0 in
  let n_lats = ref 0 and done_flows = ref 0 in
  let key_of i ~gen =
    Addr.flow
      ~src:(Addr.endpoint ~host:0 ~port:(1000 + i + (gen * 1_000_000)))
      ~dst:(Addr.endpoint ~host:(1 + (i mod dests)) ~port:80)
      ~proto:Addr.Udp ()
  in
  let request f =
    f.req_at <- Engine.now engine;
    Probe.enter tr Probe.Cm_request;
    Cm.request cm f.fid;
    Probe.leave tr
  in
  let rec open_one i ~gen =
    let f = st.(i) in
    Probe.enter tr Probe.Cm_open;
    f.fid <- Cm.open_flow cm (key_of i ~gen);
    Probe.leave tr;
    Cm.register_send cm f.fid (on_grant f);
    Cm.set_weight cm f.fid (float_of_int (1 + (i mod 3)))
  and on_grant f _ =
    Probe.enter tr Probe.Cm_grant_cb;
    lats.(!n_lats) <- Time.diff (Engine.now engine) f.req_at;
    incr n_lats;
    Probe.enter tr Probe.Cm_notify;
    Cm.notify cm f.fid ~nbytes:mtu;
    Probe.leave tr;
    Engine.post engine f.rtt f.update;
    Probe.leave tr
  in
  let close f =
    Probe.enter tr Probe.Cm_close;
    Cm.close_flow cm f.fid;
    Probe.leave tr
  in
  Array.iteri
    (fun i f ->
      f.update <-
        (fun () ->
          let lossy = f.left mod 50 = 49 in
          Probe.enter tr Probe.Cm_update;
          Cm.update cm f.fid ~nsent:mtu
            ~nrecd:(if lossy then 0 else mtu)
            ~loss:(if lossy then Cm.Cm_types.Transient else Cm.Cm_types.No_loss)
            ~rtt:f.rtt ();
          Probe.leave tr;
          f.left <- f.left - 1;
          if f.left = 0 then incr done_flows
          else begin
            if (not f.churned) && i mod 16 = 0 && f.left = rounds / 2 then begin
              f.churned <- true;
              close f;
              open_one i ~gen:1
            end;
            request f
          end))
    st;
  for i = 0 to flows - 1 do
    open_one i ~gen:0
  done;
  Array.iter request st;
  let run () =
    let guard = ref 0 in
    while !done_flows < flows && !guard < 100_000 do
      incr guard;
      Wl.run_for tr engine (Time.ms 100)
    done;
    Array.iter close st
  in
  let finish () =
    let lat = Array.sub lats 0 !n_lats in
    Array.sort compare lat;
    let pct q = if !n_lats = 0 then 0 else lat.(min (!n_lats - 1) (int_of_float (q *. float_of_int !n_lats))) in
    let tail_q = Probe.tail_quantile !n_lats in
    let expected = flows * rounds in
    let problems =
      (if !done_flows <> flows then [ Printf.sprintf "%d of %d flows unfinished" (flows - !done_flows) flows ]
       else [])
      @ if !n_lats <> expected then [ Printf.sprintf "%d grants of %d" !n_lats expected ] else []
    in
    Wl.outcome ~delivered:!n_lats ~engines:[ engine ] ~cms:[ cm ]
      ~extra:
        [
          ("cm.macroflows", List.length (Cm.audit_view cm).Cm.av_default_macroflows);
          ("cm.grant_lat_virtual_ns_p50", pct 0.5);
          ("cm.grant_lat_virtual_ns_tail", pct tail_q);
        ]
      ~problems ()
  in
  { Wl.units = Some (flows * rounds); run; finish }

let workload = { Wl.name = "manyflow_cm"; setup }
