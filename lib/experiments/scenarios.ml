open Cm_util
open Eventsim
open Netsim
open Cm_dynamics

type scenario_id = Burst_loss | Outage | Sawtooth
type app_id = Tcp_cm_bulk | Layered_stream

type result = {
  r_scenario : string;
  r_app : string;
  r_duration : Time.span;
  r_fault_start : Time.t;
  r_fault_clear : Time.t;
  r_goodput_bps : float;
  r_pre_bps : float;
  r_fault_bps : float;
  r_recovery : Time.span option;
  r_layer_switches : int option;
  r_stats : Link.stats;
}

let duration = Time.sec 24.
let warmup = Time.sec 3.
let bin = Time.ms 500

(* ---- canned scenarios --------------------------------------------------- *)

let ge_burst () = Loss.ge ~p_gb:0.01 ~p_bg:0.1 ~loss_bad:0.3 ()
(* stationary loss = (0.01/0.11)·0.3 ≈ 2.7 %, mean burst 10 packets *)

let scenario_name = function
  | Burst_loss -> "burst-loss"
  | Outage -> "outage-2s"
  | Sawtooth -> "sawtooth-bw"

let fault_steps = function
  | Burst_loss ->
      [
        ( Time.sec 8.,
          Scenario.Loss_burst
            { spec = Scenario.Loss_gilbert_elliott (ge_burst ()); duration = Time.sec 8. } );
      ]
  | Outage -> [ (Time.sec 8., Scenario.Outage (Time.sec 2.)) ]
  | Sawtooth ->
      (* two teeth: ramp 8 → 2 Mbit/s over 3 s, then snap back *)
      let tooth at =
        [
          (at, Scenario.Ramp_bandwidth { to_bps = 2e6; over = Time.sec 3.; steps = 6 });
          (Time.add at (Time.sec 5.), Scenario.Set_bandwidth 8e6);
        ]
      in
      tooth (Time.sec 6.) @ tooth (Time.sec 13.)

(* The recovery clock starts when the fault clears.  Renegotiations never
   "clear" per fault_window, so the sawtooth's clock starts at the last
   snap back to full rate. *)
let fault_window id scenario =
  match id with
  | Burst_loss | Outage -> Scenario.fault_window scenario
  | Sawtooth -> Some (Time.sec 6., Time.sec 18.)

let app_name = function Tcp_cm_bulk -> "tcp-cm-bulk" | Layered_stream -> "layered-alf"

(* ---- topology: the pipe and its faults in the spec DSL ------------------- *)

let spec_of id =
  Cm_spec.Spec.(
    par
      [
        node "a";
        node "b";
        link ~name:"fwd" ~queue:50 ~bw:8e6 ~lat:(Time.ms 20) "a" "b";
        link ~name:"rev" ~queue:1000 ~bw:8e6 ~lat:(Time.ms 20) "b" "a";
        faults ~target:"fwd" (fault_steps id);
      ])

(* (build, fwd, rev, scenario), compiled from [spec_of id] with the
   sender's CM and app [stack] *)
let make_net engine rng id ~stack =
  let ir = Cm_spec.Check.elaborate_exn (Cm_spec.Spec.par [ spec_of id; stack ]) in
  let b = Cm_spec.Build.instantiate ~rng engine ir in
  ( b,
    Cm_spec.Build.link b "fwd",
    Cm_spec.Build.link b "rev",
    Cm_spec.Build.scenario ~name:(scenario_name id) ir )

(* ---- the two applications under test ------------------------------------ *)

(* goodput timeline (value = bytes) + layer switches + forward-link stats
   + the compiled fault scenario *)
let run_bulk params id =
  Exp_common.with_system params @@ fun sys ->
  let engine = Exp_common.engine sys in
  let rng = Rng.create ~seed:params.Exp_common.seed in
  let net, ab, ba, scenario =
    make_net engine rng id
      ~stack:
        Cm_spec.Spec.(
          cm [ "a" ]
          @ flows ~name:"bulk" ~src:[ "a" ] ~dst:"b" ~port:80 ~app:(bulk ~bytes:(1 lsl 34)) ())
  in
  let links = [ ("fwd", ab); ("rev", ba) ] in
  Exp_common.watch sys ~links ~cm:(Cm_spec.Build.cm net "a") ();
  let tl = Timeline.create () in
  let running = Cm_spec.Launch.run net () in
  Cm_apps.Bulk.observe
    (Cm_spec.Launch.transfer (Cm_spec.Launch.find running "bulk") 0)
    (fun n -> Timeline.record tl (Engine.now engine) (float_of_int n));
  Scenario.compile engine ~rng ~links scenario;
  Engine.run_for engine duration;
  (tl, None, Link.stats ab, scenario)

let run_layered params id =
  Exp_common.with_system params @@ fun sys ->
  let engine = Exp_common.engine sys in
  let rng = Rng.create ~seed:params.Exp_common.seed in
  let net, ab, ba, scenario =
    make_net engine rng id
      ~stack:
        Cm_spec.Spec.(
          cm ~mtu:1000 [ "a" ]
          @ flows ~name:"stream" ~src:[ "a" ] ~dst:"b" ~port:5004
              ~app:(layered ~packet_bytes:1000 ~layers:[| 1e6; 2e6; 4e6; 8e6 |] ())
              ())
  in
  let links = [ ("fwd", ab); ("rev", ba) ] in
  Exp_common.watch sys ~links ~cm:(Cm_spec.Build.cm net "a") ();
  let running = Cm_spec.Launch.run net () in
  Scenario.compile engine ~rng ~links scenario;
  Engine.run_for engine duration;
  let stream = Cm_spec.Launch.find running "stream" in
  Cm_spec.Launch.stop stream;
  let source = Cm_spec.Launch.stream stream 0 in
  let switches = Timeline.changes (Cm_apps.Layered.layer_timeline source) in
  (Cm_apps.Layered.tx_timeline source, Some switches, Link.stats ab, scenario)

(* ---- metrics ------------------------------------------------------------ *)

let mean xs = match xs with [] -> 0. | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let mean_rate bins ~from_ ~until =
  mean (List.filter_map (fun (t, v) -> if t >= from_ && t < until then Some v else None) bins)

let analyze ~bins_bps ~fault_start ~fault_clear =
  let pre = mean_rate bins_bps ~from_:warmup ~until:fault_start in
  let during = mean_rate bins_bps ~from_:fault_start ~until:fault_clear in
  let recovery =
    (* first full bin at or after clearance that reaches 80 % of the
       pre-fault goodput; the recovery time runs to that bin's end *)
    List.find_map
      (fun (t, v) -> if t >= fault_clear && v >= 0.8 *. pre then Some (t + bin - fault_clear) else None)
      bins_bps
  in
  (pre, during, recovery)

let run_one params ~scenario ~app =
  let tl, switches, stats, sc =
    match app with
    | Tcp_cm_bulk -> run_bulk params scenario
    | Layered_stream -> run_layered params scenario
  in
  let fault_start, fault_clear =
    match fault_window scenario sc with Some w -> w | None -> (Time.zero, Time.zero)
  in
  let bins_bps =
    List.map (fun (t, bytes_per_s) -> (t, bytes_per_s *. 8.)) (Timeline.rate_series tl ~bin ~until:duration)
  in
  let total_bytes = List.fold_left (fun acc (p : Timeline.point) -> acc +. p.Timeline.value) 0. (Timeline.points tl) in
  let pre, during, recovery = analyze ~bins_bps ~fault_start ~fault_clear in
  {
    r_scenario = sc.Scenario.name;
    r_app = app_name app;
    r_duration = duration;
    r_fault_start = fault_start;
    r_fault_clear = fault_clear;
    r_goodput_bps = total_bytes *. 8. /. Time.to_float_s duration;
    r_pre_bps = pre;
    r_fault_bps = during;
    r_recovery = recovery;
    r_layer_switches = switches;
    r_stats = stats;
  }

let run params =
  List.concat_map
    (fun scenario ->
      List.map (fun app -> run_one params ~scenario ~app) [ Tcp_cm_bulk; Layered_stream ])
    [ Burst_loss; Outage; Sawtooth ]

(* ---- JSON output -------------------------------------------------------- *)

let result_json r =
  let open Exp_common.Json in
  let span_opt = function Some s -> Float (Time.to_float_s s) | None -> Null in
  Obj
    [
      ("scenario", Str r.r_scenario);
      ("app", Str r.r_app);
      ("duration_s", Float (Time.to_float_s r.r_duration));
      ("fault_start_s", Float (Time.to_float_s r.r_fault_start));
      ("fault_clear_s", Float (Time.to_float_s r.r_fault_clear));
      ("goodput_kbps", Float (Exp_common.kbps r.r_goodput_bps));
      ("pre_fault_kbps", Float (Exp_common.kbps r.r_pre_bps));
      ("fault_kbps", Float (Exp_common.kbps r.r_fault_bps));
      ("recovery_s", span_opt r.r_recovery);
      ( "layer_switches",
        match r.r_layer_switches with Some n -> Int n | None -> Null );
      ( "fwd_link",
        Obj
          [
            ("delivered_pkts", Int r.r_stats.Link.delivered_pkts);
            ("queue_drops", Int r.r_stats.Link.queue_drops);
            ("channel_drops", Int r.r_stats.Link.channel_drops);
            ("down_drops", Int r.r_stats.Link.down_drops);
          ] );
    ]

let to_json params results =
  let open Exp_common.Json in
  Obj
    [
      ("seed", Int params.Exp_common.seed);
      ("results", List (List.map result_json results));
    ]

let print params results =
  Exp_common.print_header
    "Scenario experiments: fault injection, dynamics & recovery (JSON)";
  Exp_common.print_row (Exp_common.Json.to_string (to_json params results))
