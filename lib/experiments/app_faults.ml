open Cm_util
open Eventsim
open Netsim
open Cm_spec
open Cm_dynamics

(* Endpoint-fault experiment family: honest TCP/CM transfers share a
   macroflow (and a bottleneck) with greedy libcm UDP applications that
   are driven into misbehaviour by App_faults — crash, silence, lying,
   grant hoarding, double-notifying.  The CM runs with the full defenses
   (feedback watchdog + misbehaviour auditor), the invariant auditor
   sweeps the structure every 500 ms, and the result is deterministic
   JSON: defense latency, reclamation counters, and whether the honest
   flows recover their fair-share goodput. *)

type case = Baseline | Crash | Silence | Lie | Hoard | Double_notify | Storm

let all_cases = [ Baseline; Crash; Silence; Lie; Hoard; Double_notify; Storm ]

let case_name = function
  | Baseline -> "baseline"
  | Crash -> "crash"
  | Silence -> "go_silent"
  | Lie -> "lie_no_loss"
  | Hoard -> "grant_hoard"
  | Double_notify -> "double_notify"
  | Storm -> "storm"

let duration = Time.sec 20.
let warmup = Time.sec 3.
let fault_at = Time.sec 6.
let fault_spread = Time.sec 1.
let fault_hold = Time.sec 8.

(* honest flows must be back on fair share within 10 s of fault onset *)
let post_from = Time.add fault_at (Time.sec 10.)

(* the greedy UDP application *)
let packet_bytes = 1000
let depth = 32
let feedback_period = Time.ms 50
let stall_after = Time.ms 600

type offender_report = {
  o_name : string;
  o_alive : bool;  (** process still up — [false] after a crash *)
  o_flow_open : bool;  (** CM flow still in the flow table *)
  o_suspicion : int option;  (** [None] once the flow is gone *)
  o_quarantined : bool option;
  o_sent_pkts : int;
}

type result = {
  r_case : string;
  r_faults : string list;  (** injected steps, ["target:kind"] *)
  r_fault_at : Time.t option;  (** earliest onset *)
  r_first_defense : Time.t option;
      (** first quarantine or reap (100 ms polling resolution) *)
  r_counters : Cm.counters;
  r_watchdog_fires : int;
  r_released_grant_bytes : int;
  r_offenders : offender_report list;
  r_honest_pre_bps : float;  (** combined TCP goodput, warmup → fault *)
  r_honest_post_bps : float;  (** combined TCP goodput, [post_from] → end *)
  r_recovery_ratio : float;  (** post goodput vs the baseline run's *)
  r_audit_runs : int;
  r_audit_violations : string list;  (** deduplicated, discovery order *)
}

(* ---- the misbehaving-capable UDP application ---------------------------- *)

(* A windowed ALF-style sender (cf. Fig. 6): cm_request per packet, grant
   drives the send, per-packet acks, and a 50 ms feedback timer that
   cm_updates fresh acks (and resolves stalled inflight as Transient loss,
   the app-level retransmission-timeout analogue).  Every decision point
   consults its App_faults.behaviour flags. *)
type offender = {
  name : string;
  flags : App_faults.behaviour;
  lib : Libcm.t;
  fid : Cm.Cm_types.flow_id;
  socket : Udp.Socket.t;
  mutable alive : bool;
  mutable next_seq : int;
  mutable sent_pkts : int;
  mutable sent_bytes : int;
  mutable acked_bytes : int;
  mutable lost_bytes : int;
  mutable reported_bytes : int;
  mutable pending_reqs : int;
  mutable last_rtt : Time.span option;
  mutable last_progress : Time.t;
}

let make_offender engine cm host ~name ~port ~start_at =
  let lib = Libcm.create host cm () in
  let socket = Udp.Socket.create host () in
  let dst = Addr.endpoint ~host:1 ~port in
  Udp.Socket.connect socket dst;
  let key = Addr.flow ~src:(Udp.Socket.local socket) ~dst ~proto:Addr.Udp () in
  let fid = Libcm.open_flow lib key in
  let o =
    {
      name;
      flags = App_faults.behaviour ();
      lib;
      fid;
      socket;
      alive = true;
      next_seq = 0;
      sent_pkts = 0;
      sent_bytes = 0;
      acked_bytes = 0;
      lost_bytes = 0;
      reported_bytes = 0;
      pending_reqs = 0;
      last_rtt = None;
      last_progress = Time.zero;
    }
  in
  let inflight () = Stdlib.max 0 (o.sent_bytes - o.acked_bytes - o.lost_bytes) in
  let send_one () =
    let seq = o.next_seq in
    o.next_seq <- seq + 1;
    o.sent_pkts <- o.sent_pkts + 1;
    o.sent_bytes <- o.sent_bytes + packet_bytes;
    Udp.Socket.send socket ~payload_bytes:packet_bytes
      (Udp.Feedback.Data { seq; bytes = packet_bytes; ts = Engine.now engine });
    (* the attach hook already charged this transmission; the
       double-notifier reports it a second time by explicit ioctl *)
    if o.flags.App_faults.double_notify then Libcm.notify lib fid ~nbytes:packet_bytes
  in
  let pump () =
    if o.alive then
      while ((o.pending_reqs * packet_bytes) + inflight ()) < depth * packet_bytes do
        o.pending_reqs <- o.pending_reqs + 1;
        Libcm.request lib fid
      done
  in
  Libcm.register_send lib fid (fun _ ->
      o.pending_reqs <- Stdlib.max 0 (o.pending_reqs - 1);
      (* the hoarder sits on the grant: neither sends nor declines *)
      if o.alive && not o.flags.App_faults.hoard then send_one ());
  Udp.Socket.on_receive socket (fun pkt ->
      match pkt.Packet.payload with
      | Udp.Feedback.Ack { max_seq = _; count = _; bytes; ts_echo } ->
          if o.alive then begin
            o.acked_bytes <- o.acked_bytes + bytes;
            o.last_rtt <- Some (Time.diff (Engine.now engine) ts_echo);
            o.last_progress <- Engine.now engine;
            pump ()
          end
      | _ -> ());
  let rec tick () =
    if o.alive then begin
      let now = Engine.now engine in
      if not o.flags.App_faults.silent then begin
        let fresh = o.acked_bytes - o.reported_bytes in
        if fresh > 0 then begin
          o.reported_bytes <- o.acked_bytes;
          Libcm.update lib fid ~nsent:fresh ~nrecd:fresh ~loss:Cm.Cm_types.No_loss
            ?rtt:o.last_rtt ()
        end;
        let stalled = inflight () in
        if stalled > 0 && Time.diff now o.last_progress > stall_after then begin
          o.lost_bytes <- o.lost_bytes + stalled;
          o.last_progress <- now;
          Libcm.update lib fid ~nsent:stalled ~nrecd:0 ~loss:Cm.Cm_types.Transient ()
        end
      end;
      (* the liar fabricates delivered-fine claims on top of reality *)
      if o.flags.App_faults.lie_no_loss then
        Libcm.update lib fid ~nsent:20_000 ~nrecd:20_000 ~loss:Cm.Cm_types.No_loss ();
      pump ();
      ignore (Engine.schedule_after engine feedback_period tick)
    end
  in
  ignore
    (Engine.schedule_at engine start_at (fun () ->
         o.last_progress <- Engine.now engine;
         tick ()));
  o

let crash_offender o () =
  if o.alive then begin
    o.alive <- false;
    (* process death: the control socket closes and the CM reaps *)
    Libcm.destroy o.lib;
    Udp.Socket.close o.socket
  end

(* ---- fault schedules ---------------------------------------------------- *)

let offender_names = [ "off0"; "off1"; "off2"; "off3" ]

let steps_of_case = function
  | Baseline -> []
  | Crash -> [ ("off0", App_faults.Crash) ]
  | Silence -> [ ("off0", App_faults.Go_silent fault_hold) ]
  | Lie -> [ ("off0", App_faults.Lie_no_loss fault_hold) ]
  | Hoard -> [ ("off0", App_faults.Grant_hoard fault_hold) ]
  | Double_notify -> [ ("off0", App_faults.Double_notify fault_hold) ]
  | Storm ->
      [
        ("off0", App_faults.Crash);
        ("off1", App_faults.Go_silent fault_hold);
        ("off2", App_faults.Lie_no_loss fault_hold);
        ("off3", App_faults.Grant_hoard fault_hold);
      ]

(* ---- measurement -------------------------------------------------------- *)

let window_bps tl ~from_ ~until =
  let bytes =
    List.fold_left
      (fun acc (p : Timeline.point) ->
        if p.Timeline.time >= from_ && p.Timeline.time < until then acc +. p.Timeline.value
        else acc)
      0. (Timeline.points tl)
  in
  bytes *. 8. /. Time.to_float_s (Time.diff until from_)

(* this family always runs defended — measuring the defenses is its point *)
let spec =
  Spec.(
    par
      [
        pipe ~queue:50 ~bw:8e6 ~lat:(Time.ms 20) ();
        cm ~defended:true [ "a" ];
        (* two honest TCP/CM bulk transfers *)
        flows ~name:"honest" ~src:[ "a"; "a" ] ~dst:"b" ~port:80 ~app:(bulk ~bytes:(1 lsl 34)) ();
      ])

let run_case params case =
  Exp_common.with_system params @@ fun sys ->
  let engine = Exp_common.engine sys in
  let rng = Rng.create ~seed:params.Exp_common.seed in
  let net = Build.pipe ~rng engine spec in
  let cm = Build.cm net.Build.net "a" in
  Exp_common.watch sys
    ~tag:("app_faults-" ^ case_name case)
    ~links:[ ("fwd", net.Build.ab); ("rev", net.Build.ba) ]
    ~cm ();
  (* flight recorder: the last events before each defense firing / audit
     breach, dumped as JSONL (exercised by the CI crash-dump smoke) *)
  let record_dump reason =
    match Exp_common.recorder sys with
    | Some r -> ignore (Telemetry.Recorder.dump r ~reason : string)
    | None -> ()
  in
  let honest_tl = Timeline.create () in
  let honest = Launch.find (Launch.run net.Build.net ()) "honest" in
  for i = 0 to 1 do
    Cm_apps.Bulk.observe (Launch.transfer honest i) (fun n ->
        Timeline.record honest_tl (Engine.now engine) (float_of_int n))
  done;
  (* four greedy UDP applications, one libcm "process" each *)
  let offenders =
    List.mapi
      (fun i name ->
        let port = 5004 + i in
        let _receiver = Udp.Cc_socket.run_echo_receiver net.Build.b ~port () in
        make_offender engine cm net.Build.a ~name ~port
          ~start_at:(Time.ms (100 + (20 * i))))
      offender_names
  in
  (* arm the fault schedule (seeded onset jitter in [fault_at, +spread)) *)
  let steps = steps_of_case case in
  let fault_names, fault_onset =
    match steps with
    | [] -> ([], None)
    | _ ->
        let targets =
          List.map
            (fun o -> App_faults.target ~name:o.name ~crash:(crash_offender o) o.flags)
            offenders
        in
        let sched = App_faults.jittered ~rng:(Rng.split rng) ~at:fault_at ~spread:fault_spread steps in
        App_faults.compile engine ~targets sched;
        ( List.map (fun (s : App_faults.step) -> s.App_faults.target ^ ":" ^
              (match s.App_faults.kind with
               | App_faults.Crash -> "crash"
               | App_faults.Go_silent _ -> "go_silent"
               | App_faults.Lie_no_loss _ -> "lie_no_loss"
               | App_faults.Grant_hoard _ -> "grant_hoard"
               | App_faults.Double_notify _ -> "double_notify"))
            sched.App_faults.steps,
          Option.map fst (App_faults.fault_window sched) )
  in
  (* invariant auditor sweep every 500 ms *)
  let audit_runs = ref 0 in
  let violations = ref [] in
  let rec audit () =
    incr audit_runs;
    let rep = Cm.Audit.run cm in
    List.iter
      (fun v ->
        if not (List.mem v !violations) then begin
          violations := !violations @ [ v ];
          record_dump ("audit:" ^ v)
        end)
      rep.Cm.Audit.violations;
    ignore (Engine.schedule_after engine (Time.ms 500) audit)
  in
  ignore (Engine.schedule_at engine (Time.ms 250) audit);
  (* defense-latency probe: first quarantine or reap, 100 ms resolution *)
  let first_defense = ref None in
  let rec probe () =
    (match !first_defense with
    | None ->
        let c = Cm.counters cm in
        if c.Cm.quarantines + c.Cm.reaps > 0 then begin
          first_defense := Some (Engine.now engine);
          record_dump "defense"
        end
    | Some _ -> ());
    if !first_defense = None then ignore (Engine.schedule_after engine (Time.ms 100) probe)
  in
  ignore (Engine.schedule_at engine (Time.ms 100) probe);
  Engine.run_for engine duration;
  let open_flows = Cm.flows cm in
  let offender_reports =
    List.map
      (fun o ->
        let flow_open = List.mem o.fid open_flows in
        {
          o_name = o.name;
          o_alive = Libcm.is_alive o.lib;
          o_flow_open = flow_open;
          o_suspicion = (if flow_open then Some (Cm.suspicion cm o.fid) else None);
          o_quarantined = (if flow_open then Some (Cm.is_quarantined cm o.fid) else None);
          o_sent_pkts = o.sent_pkts;
        })
      offenders
  in
  {
    r_case = case_name case;
    r_faults = fault_names;
    r_fault_at = fault_onset;
    r_first_defense = !first_defense;
    r_counters = Cm.counters cm;
    r_watchdog_fires = Cm.watchdog_fires cm;
    r_released_grant_bytes = Cm.released_grant_bytes cm;
    r_offenders = offender_reports;
    r_honest_pre_bps = window_bps honest_tl ~from_:warmup ~until:fault_at;
    r_honest_post_bps = window_bps honest_tl ~from_:post_from ~until:duration;
    r_recovery_ratio = 0.;
    r_audit_runs = !audit_runs;
    r_audit_violations = !violations;
  }

let run params =
  let baseline = run_case params Baseline in
  let fair = baseline.r_honest_post_bps in
  List.map
    (fun case ->
      let r = if case = Baseline then baseline else run_case params case in
      let ratio = if fair > 0. then r.r_honest_post_bps /. fair else 0. in
      { r with r_recovery_ratio = ratio })
    all_cases

(* ---- JSON output -------------------------------------------------------- *)

let offender_json o =
  let open Exp_common.Json in
  let opt_int = function Some n -> Int n | None -> Null in
  let opt_bool = function Some b -> Bool b | None -> Null in
  Obj
    [
      ("name", Str o.o_name);
      ("alive", Bool o.o_alive);
      ("flow_open", Bool o.o_flow_open);
      ("suspicion", opt_int o.o_suspicion);
      ("quarantined", opt_bool o.o_quarantined);
      ("sent_pkts", Int o.o_sent_pkts);
    ]

let result_json r =
  let open Exp_common.Json in
  let time_opt = function Some t -> Float (Time.to_float_s t) | None -> Null in
  let c = r.r_counters in
  Obj
    [
      ("case", Str r.r_case);
      ("faults", List (List.map (fun f -> Str f) r.r_faults));
      ("fault_at_s", time_opt r.r_fault_at);
      ("first_defense_s", time_opt r.r_first_defense);
      ( "counters",
        Obj
          [
            ("rejected_updates", Int c.Cm.rejected_updates);
            ("rejected_notifies", Int c.Cm.rejected_notifies);
            ("quarantines", Int c.Cm.quarantines);
            ("reaps", Int c.Cm.reaps);
            ("declined_grants", Int c.Cm.declined_grants);
          ] );
      ("watchdog_fires", Int r.r_watchdog_fires);
      ("released_grant_bytes", Int r.r_released_grant_bytes);
      ("offenders", List (List.map offender_json r.r_offenders));
      ("honest_pre_kbps", Float (Exp_common.kbps r.r_honest_pre_bps));
      ("honest_post_kbps", Float (Exp_common.kbps r.r_honest_post_bps));
      ("recovery_ratio", Float r.r_recovery_ratio);
      ("audit_runs", Int r.r_audit_runs);
      ("audit_ok", Bool (r.r_audit_violations = []));
      ("audit_violations", List (List.map (fun v -> Str v) r.r_audit_violations));
    ]

let to_json params results =
  let open Exp_common.Json in
  Obj
    [
      ("seed", Int params.Exp_common.seed);
      ("duration_s", Float (Time.to_float_s duration));
      ("results", List (List.map result_json results));
    ]

let print params results =
  Exp_common.print_header
    "Endpoint faults: crash / silence / lying / hoarding vs the CM defenses (JSON)";
  Exp_common.print_row (Exp_common.Json.to_string (to_json params results))
