(* Tests for the run-health analyzer (lib/report): bottleneck
   attribution, stall-window detection, Jain fairness, drop-cause
   totals, layer-flap scoring, verdict thresholds, and the deterministic
   JSON/markdown rendering. *)

open Cm_util
open Cm_report

let ( => ) name b = Alcotest.(check bool) name true b
let feq name a b = Alcotest.(check (float 1e-9)) name a b

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* A hand-built 10-tick run with known pathologies:
   - mf0: congestion-window-bound for the first half (pipe at 90% of
     cwnd), then grant-starved (requests pending, nothing granted);
     tick 2 is overridden by a queue-drop burst on the forward link.
   - mf1: unconstrained but stalled (zero rate) for ticks 3..8.
   - four layer switches, two of them direction reversals, in 1 s. *)
let synthetic_input () =
  let times = Array.init 10 (fun i -> 0.1 *. float_of_int (i + 1)) in
  let const v = Array.make 10 v in
  let ev ms from to_ =
    {
      Telemetry.Trace.ts = Time.ms ms;
      phase = Telemetry.Trace.Instant;
      name = "app.layer";
      cat = "app";
      args = [ ("from", Telemetry.Trace.Int from); ("to", Telemetry.Trace.Int to_) ];
    }
  in
  {
    Analyze.i_times = times;
    i_series =
      [
        ("mf0.cwnd", const 10_000.);
        ("mf0.pipe", Array.init 10 (fun i -> if i < 5 then 9_000. else 0.));
        ("mf0.pending", Array.init 10 (fun i -> if i < 5 then 0. else 1.));
        ("mf0.granted", const 0.);
        ("mf0.rate_bps", const 1_000.);
        ("mf1.cwnd", const 10_000.);
        ("mf1.rate_bps", Array.init 10 (fun i -> if i >= 3 && i <= 8 then 0. else 1_000.));
        ("link.fwd.drops_queue", Array.init 10 (fun i -> if i < 2 then 0. else 5.));
      ];
    i_scalars =
      [
        ("link.fwd.drops_queue", 5.);
        ("link.fwd.drops_down", 0.);
        ("link.fwd.delivered_pkts", 200.);
      ];
    i_events = [ ev 100 0 1; ev 300 1 2; ev 500 2 1; ev 700 1 2 ];
    i_duration_s = 1.0;
    i_period_s = 0.1;
  }

let attribution flow cause =
  match List.assoc_opt cause flow.Analyze.f_attribution with
  | Some x -> x
  | None -> Alcotest.fail ("no attribution bucket " ^ cause)

let flow r name =
  match List.find_opt (fun f -> f.Analyze.f_name = name) r.Analyze.r_flows with
  | Some f -> f
  | None -> Alcotest.fail ("flow missing from report: " ^ name)

let test_attribution () =
  let r = Analyze.analyze (synthetic_input ()) in
  Alcotest.(check int) "both flows found" 2 (List.length r.Analyze.r_flows);
  let f0 = flow r "mf0" in
  feq "mf0 cwnd-limited 4/10" 0.4 (attribution f0 "cwnd_limited");
  feq "mf0 grant-limited 5/10" 0.5 (attribution f0 "grant_limited");
  feq "mf0 queue-limited 1/10" 0.1 (attribution f0 "queue_limited");
  feq "mf0 never link-down" 0. (attribution f0 "link_down");
  let f1 = flow r "mf1" in
  feq "mf1 unconstrained 9/10" 0.9 (attribution f1 "unconstrained");
  feq "mf1 queue tick shared" 0.1 (attribution f1 "queue_limited")

let test_stalls_and_fairness () =
  let r = Analyze.analyze (synthetic_input ()) in
  let f1 = flow r "mf1" in
  (match f1.Analyze.f_stall_windows with
  | [ (a, b) ] ->
      feq "stall starts at first zero tick" 0.4 a;
      feq "stall ends at last zero tick" 0.9 b
  | l -> Alcotest.fail (Printf.sprintf "expected 1 stall window, got %d" (List.length l)));
  feq "stall fraction" 0.6 f1.Analyze.f_stall_frac;
  let f0 = flow r "mf0" in
  "steady flow never stalls" => (f0.Analyze.f_stall_windows = []);
  (* mean rates 1000 vs 400 -> Jain (1400)^2 / (2 * 1.16e6) *)
  feq "jain index" (1400. *. 1400. /. (2. *. 1_160_000.)) r.Analyze.r_jain

let test_flaps_and_drops () =
  let r = Analyze.analyze (synthetic_input ()) in
  Alcotest.(check int) "switches counted" 4 r.Analyze.r_layer_switches;
  Alcotest.(check int) "reversals counted" 2 r.Analyze.r_layer_reversals;
  feq "flaps per second" 2.0 r.Analyze.r_flap_per_s;
  let d k = List.assoc k r.Analyze.r_drops in
  Alcotest.(check int) "queue drops" 5 (d "queue");
  Alcotest.(check int) "down drops" 0 (d "down");
  Alcotest.(check int) "delivered" 200 (d "delivered_pkts")

let test_verdicts () =
  let r = Analyze.analyze (synthetic_input ()) in
  let status check =
    match List.find_opt (fun v -> v.Analyze.v_check = check) r.Analyze.r_verdicts with
    | Some v -> v.Analyze.v_status
    | None -> Alcotest.fail ("verdict missing: " ^ check)
  in
  "stalls warn (0.6 > 0.1)" => (status "stalls" = Analyze.Warn);
  "fairness warn (0.845 < 0.85)" => (status "fairness" = Analyze.Warn);
  "flaps warn (2/s > 1)" => (status "flaps" = Analyze.Warn);
  "down drops pass" => (status "down_drops" = Analyze.Pass);
  "queue drops pass (2.5% of delivered)" => (status "queue_drops" = Analyze.Pass);
  "grant starvation pass (0.5 at threshold)" => (status "grant_starvation" = Analyze.Pass);
  "overall rolls up to warn" => (r.Analyze.r_overall = Analyze.Warn)

let test_healthy_run_passes () =
  let input =
    {
      (synthetic_input ()) with
      Analyze.i_series =
        [
          ("mf0.cwnd", Array.make 10 10_000.);
          ("mf0.rate_bps", Array.make 10 1_000.);
          ("mf1.cwnd", Array.make 10 10_000.);
          ("mf1.rate_bps", Array.make 10 1_000.);
        ];
      i_events = [];
    }
  in
  let r = Analyze.analyze input in
  "healthy run passes overall" => (r.Analyze.r_overall = Analyze.Pass);
  feq "perfect fairness" 1.0 r.Analyze.r_jain

let test_rendering_deterministic_and_parseable () =
  let render () = Json.to_string (Analyze.to_json (Analyze.analyze (synthetic_input ()))) in
  let a = render () and b = render () in
  Alcotest.(check string) "twice-rendered identical" a b;
  (match Json.parse a with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("report JSON does not parse: " ^ e));
  let md = Analyze.to_markdown (Analyze.analyze (synthetic_input ())) in
  "markdown names the flows" => (contains md "mf0" && contains md "mf1");
  "markdown carries the verdict table" => contains md "| stalls | warn |";
  "markdown states overall" => contains md "**Overall: warn**"

let test_of_telemetry_smoke () =
  (* a real (tiny) instrumented run flows through the same pipeline *)
  let capture () =
    let scenarios = Option.get (Experiments.Family.find "scenarios") in
    let run = List.assoc "scenario_outage" scenarios.Experiments.Family.subruns in
    snd (List.hd (Experiments.Capture.capture ~seed:7 [ ("scenario_outage", run) ]))
  in
  let input = Analyze.of_telemetry (capture ()) in
  "sampler ticks captured" => (Array.length input.Analyze.i_times > 10);
  "series captured" => (input.Analyze.i_series <> []);
  "duration positive" => (input.Analyze.i_duration_s > 0.);
  let r = Analyze.analyze input in
  "found at least one flow" => (r.Analyze.r_flows <> []);
  let s1 = Json.to_string (Analyze.to_json r) in
  let s2 =
    Json.to_string
      (Analyze.to_json
         (Analyze.analyze (Analyze.of_telemetry (capture ()))))
  in
  Alcotest.(check string) "end-to-end byte-identical for the same seed" s1 s2

let () =
  Alcotest.run "report"
    [
      ( "analyze",
        [
          Alcotest.test_case "bottleneck attribution" `Quick test_attribution;
          Alcotest.test_case "stalls and fairness" `Quick test_stalls_and_fairness;
          Alcotest.test_case "flaps and drop totals" `Quick test_flaps_and_drops;
          Alcotest.test_case "verdict thresholds" `Quick test_verdicts;
          Alcotest.test_case "healthy run passes" `Quick test_healthy_run_passes;
        ] );
      ( "render",
        [
          Alcotest.test_case "deterministic + parseable" `Quick
            test_rendering_deterministic_and_parseable;
          Alcotest.test_case "of_telemetry end to end" `Quick test_of_telemetry_smoke;
        ] );
    ]
