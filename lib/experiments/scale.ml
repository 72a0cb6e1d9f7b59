open Cm_util
open Eventsim
open Netsim

(* Many-flow scalability: a web-server-like closed-loop workload driven
   straight against the CM API (no packet simulation — the subject under
   test is the CM's own per-grant and per-flow control paths).

   N flows spread over N/32 destination hosts (so per-macroflow membership
   stays constant while the CM-wide flow count grows); every flow runs
   [rounds] request → grant → notify → update cycles against a synthetic
   2 ms path, a slice of flows closes and reopens mid-run to exercise the
   teardown path, and everything is closed at the end.  Sub-linear
   per-grant cost shows up as events-per-grant (deterministic JSON)
   staying flat as N grows. *)

type sched = Rr | Stride

let sched_name = function Rr -> "round-robin" | Stride -> "weighted-stride"
let sched_factory = function Rr -> Cm.Scheduler.round_robin | Stride -> Cm.Scheduler.weighted

type point = {
  p_sched : sched;
  p_flows : int;
  p_macroflows : int;
  p_rounds : int;
  p_grants : int;
  p_closes : int;
  p_events : int;
  p_virtual_s : float;
  p_lat_p50_us : float;  (** request → grant latency, virtual time *)
  p_lat_p99_us : float;
  p_teardown_probes : int;
}

(* one flow's closed-loop state, a single small record (see [run_point]) *)
type fstate = {
  mutable fs_fid : int;
  fs_rtt : Cm_util.Time.span;
  mutable fs_left : int;
  mutable fs_churned : bool;
  (* the loop is closed, so a flow never has more than one request in
     flight: a scalar timestamp slot, no queue, no allocation *)
  mutable fs_req_at : Cm_util.Time.t;
  mutable fs_update : unit -> unit;
}

let family = [ 64; 512; 4096; 16384 ]
let rounds = 24
let flows_per_mf = 32
let mtu = 1448

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(Stdlib.min (n - 1) (int_of_float (q *. float_of_int n)))

let run_point params ~sched ~flows =
  Exp_common.with_system params @@ fun sys ->
  let engine = Exp_common.engine sys in
  let cm = Cm.create engine ~mtu ~scheduler:(sched_factory sched) () in
  let dests = Stdlib.max 1 (flows / flows_per_mf) in
  let rng = Rng.create ~seed:params.Exp_common.seed in
  (* All of a flow's loop state lives in one record — one cache line per
     flow on the hot cycle instead of a line per parallel array.  At
     N=16384 the per-flow state is what the cycle cost is made of, so its
     layout is part of what the experiment measures.  [fs_update] is the
     flow's update callback, allocated once at setup rather than one
     closure per cycle. *)
  let nil_thunk = fun () -> () in
  let st =
    (* per-flow feedback delay: a 2 ms path with fixed per-flow jitter so
       the event pattern is irregular but fully determined by the seed
       (records are built in index order, preserving the rng draw order
       of the former rtt array) *)
    Array.init flows (fun _ ->
        {
          fs_fid = -1;
          fs_rtt = Time.add (Time.ms 2) (Time.us (Rng.int rng 500));
          fs_left = rounds;
          fs_churned = false;
          fs_req_at = Time.zero;
          fs_update = nil_thunk;
        })
  in
  let lats = Array.make (flows * rounds) 0. in
  let n_lats = ref 0 in
  let done_flows = ref 0 in
  let key_of i ~gen =
    Addr.flow
      ~src:(Addr.endpoint ~host:0 ~port:(1000 + i + (gen * 1_000_000)))
      ~dst:(Addr.endpoint ~host:(1 + (i mod dests)) ~port:80)
      ~proto:Addr.Udp ()
  in
  let request f =
    f.fs_req_at <- Engine.now engine;
    Cm.request cm f.fs_fid
  in
  let rec open_one i ~gen =
    let f = st.(i) in
    f.fs_fid <- Cm.open_flow cm (key_of i ~gen);
    Cm.register_send cm f.fs_fid (on_grant f);
    if sched = Stride then Cm.set_weight cm f.fs_fid (float_of_int (1 + (i mod 3)))
  and on_grant f _granted_fid =
    lats.(!n_lats) <- Time.to_float_us (Time.diff (Engine.now engine) f.fs_req_at);
    incr n_lats;
    Cm.notify cm f.fs_fid ~nbytes:mtu;
    Engine.post engine f.fs_rtt f.fs_update
  in
  for i = 0 to flows - 1 do
    let f = st.(i) in
    f.fs_update <-
      (fun () ->
        (* every 50th cycle of a flow reports a transient loss so the
           shared controllers keep reacting at scale *)
        let lossy = f.fs_left mod 50 = 49 in
        Cm.update cm f.fs_fid ~nsent:mtu
          ~nrecd:(if lossy then 0 else mtu)
          ~loss:(if lossy then Cm.Cm_types.Transient else Cm.Cm_types.No_loss)
          ~rtt:f.fs_rtt ();
        f.fs_left <- f.fs_left - 1;
        if f.fs_left = 0 then incr done_flows
        else begin
          (* mid-run churn: every 16th flow closes and reopens once,
             half-way through its rounds *)
          if (not f.fs_churned) && i mod 16 = 0 && f.fs_left = rounds / 2 then begin
            f.fs_churned <- true;
            Cm.close_flow cm f.fs_fid;
            open_one i ~gen:1
          end;
          request f
        end)
  done;
  for i = 0 to flows - 1 do
    open_one i ~gen:0
  done;
  for i = 0 to flows - 1 do
    request st.(i)
  done;
  let guard = ref 0 in
  while !done_flows < flows && !guard < 100_000 do
    incr guard;
    Engine.run_for engine (Time.ms 100)
  done;
  for i = 0 to flows - 1 do
    Cm.close_flow cm st.(i).fs_fid
  done;
  let c = Cm.counters cm in
  let lat = Array.sub lats 0 !n_lats in
  Array.sort Stdlib.compare lat;
  {
    p_sched = sched;
    p_flows = flows;
    p_macroflows = List.length (Cm.audit_view cm).Cm.av_default_macroflows;
    p_rounds = rounds;
    p_grants = c.Cm.grants;
    p_closes = c.Cm.closes;
    p_events = Engine.events_executed engine;
    p_virtual_s = Time.to_float_s (Engine.now engine);
    p_lat_p50_us = percentile lat 0.50;
    p_lat_p99_us = percentile lat 0.99;
    p_teardown_probes = Cm.teardown_probes cm;
  }

let run ?(sizes = family) params =
  List.concat_map
    (fun sched -> List.map (fun flows -> run_point params ~sched ~flows) sizes)
    [ Rr; Stride ]

(* ---- JSON output -------------------------------------------------------- *)

(* Only virtual-time figures: this document is diffed byte-for-byte by
   the CI determinism gate. *)
let point_json p =
  let open Exp_common.Json in
  Obj
    [
      ("scheduler", Str (sched_name p.p_sched));
      ("flows", Int p.p_flows);
      ("macroflows", Int p.p_macroflows);
      ("rounds", Int p.p_rounds);
      ("grants", Int p.p_grants);
      ("closes", Int p.p_closes);
      ("events", Int p.p_events);
      ("events_per_grant", Float (float_of_int p.p_events /. float_of_int p.p_grants));
      ("virtual_s", Float p.p_virtual_s);
      ("grant_lat_p50_us", Float p.p_lat_p50_us);
      ("grant_lat_p99_us", Float p.p_lat_p99_us);
      ("teardown_probes", Int p.p_teardown_probes);
    ]

let to_json params points =
  let open Exp_common.Json in
  Obj
    [
      ("seed", Int params.Exp_common.seed);
      ("flows_per_macroflow", Int flows_per_mf);
      ("points", List (List.map point_json points));
    ]

let print params points =
  Exp_common.print_header "Scale: many-flow CM control-path scalability (JSON)";
  Exp_common.print_row (Exp_common.Json.to_string (to_json params points))
