(* Telemetry subsystem tests: metrics registry, log-bucketed histograms,
   virtual-time sampler, structured tracer + exporters, and the
   determinism contract (same seed => byte-identical artifacts). *)

open Cm_util
open Eventsim

let ( => ) name b = Alcotest.(check bool) name true b
let feq name a b = Alcotest.(check (float 1e-9)) name a b

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ---- metrics registry ------------------------------------------------- *)

let test_counter_basics () =
  let m = Telemetry.Metrics.create () in
  let c = Telemetry.Metrics.counter m "pkts" in
  Telemetry.Metrics.incr c;
  Telemetry.Metrics.incr ~by:4 c;
  Alcotest.(check int) "count" 5 (Telemetry.Metrics.count c);
  (* idempotent registration returns the same counter *)
  let c' = Telemetry.Metrics.counter m "pkts" in
  Telemetry.Metrics.incr c';
  Alcotest.(check int) "shared" 6 (Telemetry.Metrics.count c)

let test_kind_collision_rejected () =
  let m = Telemetry.Metrics.create () in
  ignore (Telemetry.Metrics.counter m "x");
  Alcotest.check_raises "gauge under counter name"
    (Invalid_argument "Metrics: \"x\" is already registered") (fun () ->
      ignore (Telemetry.Metrics.gauge m "x" (fun () -> 0.)))

let test_snapshot_order_and_reset () =
  let m = Telemetry.Metrics.create () in
  let c = Telemetry.Metrics.counter m "b_counter" in
  ignore (Telemetry.Metrics.gauge m "a_gauge" (fun () -> 7.5));
  let h = Telemetry.Metrics.histogram m "c_hist" in
  Telemetry.Metrics.incr ~by:3 c;
  Telemetry.Metrics.observe h 2.0;
  (* registration order, not alphabetical *)
  Alcotest.(check (list string))
    "snapshot order"
    [ "b_counter"; "a_gauge"; "c_hist" ]
    (List.map fst (Telemetry.Metrics.snapshot m));
  Telemetry.Metrics.reset m;
  Alcotest.(check int) "counter zeroed" 0 (Telemetry.Metrics.count c);
  (match Telemetry.Metrics.snapshot m with
  | [ _; ("a_gauge", Telemetry.Metrics.Sg v); _ ] -> feq "gauge survives reset" 7.5 v
  | _ -> Alcotest.fail "unexpected snapshot shape");
  "histogram zeroed"
  => (Stats.Histogram.count (Telemetry.Metrics.hist h) = 0)

let test_metrics_json () =
  let m = Telemetry.Metrics.create () in
  let c = Telemetry.Metrics.counter m "n" in
  Telemetry.Metrics.incr ~by:2 c;
  ignore (Telemetry.Metrics.gauge m "g" (fun () -> 1.25));
  let s = Json.to_string (Telemetry.Metrics.to_json m) in
  "counter in json" => contains s "\"n\": 2";
  "gauge in json" => contains s "\"g\": 1.25"

(* ---- histogram quantiles ---------------------------------------------- *)

let test_histogram_quantiles () =
  let h = Stats.Histogram.create () in
  for i = 1 to 1000 do
    Stats.Histogram.observe h (float_of_int i)
  done;
  Alcotest.(check int) "count" 1000 (Stats.Histogram.count h);
  feq "min" 1. (Stats.Histogram.min_value h);
  feq "max" 1000. (Stats.Histogram.max_value h);
  let p50 = Stats.Histogram.quantile h 0.5 in
  (* log-bucketed: coarse, but must land within a power-of-two of truth *)
  "p50 in range" => (p50 >= 250. && p50 <= 1000.);
  let p99 = Stats.Histogram.quantile h 0.99 in
  "p99 in range" => (p99 >= 500. && p99 <= 1000.);
  "monotone" => (Stats.Histogram.quantile h 0.1 <= p50 && p50 <= p99);
  feq "q0 is min" 1. (Stats.Histogram.quantile h 0.);
  feq "q1 is max" 1000. (Stats.Histogram.quantile h 1.)

let test_histogram_merge () =
  let a = Stats.Histogram.create () and b = Stats.Histogram.create () in
  List.iter (Stats.Histogram.observe a) [ 1.; 2.; 3. ];
  List.iter (Stats.Histogram.observe b) [ 100.; 200. ];
  let m = Stats.Histogram.merge a b in
  Alcotest.(check int) "merged count" 5 (Stats.Histogram.count m);
  feq "merged min" 1. (Stats.Histogram.min_value m);
  feq "merged max" 200. (Stats.Histogram.max_value m);
  feq "merged sum" 306. (Stats.Histogram.sum m)

(* ---- sampler ----------------------------------------------------------- *)

let test_sampler_virtual_time () =
  let e = Engine.create () in
  let s = Telemetry.Sampler.create e ~period:(Time.ms 100) () in
  let v = ref 0. in
  Telemetry.Sampler.subscribe s "v" (fun () -> !v);
  Telemetry.Sampler.start s;
  ignore (Engine.schedule_at e (Time.ms 150) (fun () -> v := 5.));
  Engine.run_for e (Time.ms 450);
  Telemetry.Sampler.stop s;
  Alcotest.(check int) "ticks at 100/200/300/400ms" 4 (Telemetry.Sampler.ticks s);
  let b = Buffer.create 256 in
  Telemetry.Sampler.to_csv b s;
  let csv = Buffer.contents b in
  "header" => contains csv "time_s,v";
  (* tick 1 (t=0.1) sees 0, tick 2 (t=0.2) sees the update made at 0.15 *)
  "first tick value" => contains csv "\n0.1,0\n";
  "second tick value" => contains csv "\n0.2,5\n"

let test_sampler_late_subscription_blank () =
  let e = Engine.create () in
  let s = Telemetry.Sampler.create e ~period:(Time.ms 100) () in
  Telemetry.Sampler.subscribe s "early" (fun () -> 1.);
  Telemetry.Sampler.start s;
  Engine.run_for e (Time.ms 250);
  Telemetry.Sampler.subscribe s "late" (fun () -> 2.);
  Engine.run_for e (Time.ms 200);
  Telemetry.Sampler.stop s;
  let b = Buffer.create 256 in
  Telemetry.Sampler.to_csv b s;
  let csv = Buffer.contents b in
  (* pre-subscription ticks render as blank cells, not zeros *)
  "early rows blank in late column" => contains csv "\n0.1,1,\n";
  "later rows filled" => contains csv "\n0.3,1,2\n"

(* ---- tracer ------------------------------------------------------------ *)

let test_trace_nil_sink () =
  "nil is off" => not (Telemetry.Trace.on Telemetry.Trace.nil);
  (* emitting into nil is a harmless no-op *)
  Telemetry.Trace.instant Telemetry.Trace.nil "x" [];
  Alcotest.(check int) "nil stays empty" 0 (Telemetry.Trace.length Telemetry.Trace.nil)

let test_trace_events_and_spans () =
  let e = Engine.create () in
  let tr = Telemetry.Trace.create e in
  ignore
    (Engine.schedule_at e (Time.ms 10) (fun () ->
         Telemetry.Trace.with_span tr ~cat:"test" "work"
           [ ("k", Telemetry.Trace.Int 1) ]
           (fun () -> Telemetry.Trace.instant tr ~cat:"test" "mid" [])));
  Engine.run e;
  match Telemetry.Trace.events tr with
  | [ b; i; en ] ->
      "begin phase" => (b.Telemetry.Trace.phase = Telemetry.Trace.Span_begin);
      "instant phase" => (i.Telemetry.Trace.phase = Telemetry.Trace.Instant);
      "end phase" => (en.Telemetry.Trace.phase = Telemetry.Trace.Span_end);
      Alcotest.(check int) "virtual stamp" (Time.ms 10) b.Telemetry.Trace.ts
  | l -> Alcotest.fail (Printf.sprintf "expected 3 events, got %d" (List.length l))

let test_trace_exporters () =
  let e = Engine.create () in
  let tr = Telemetry.Trace.create e in
  ignore
    (Engine.schedule_at e (Time.ms 1) (fun () ->
         Telemetry.Trace.instant tr ~cat:"cm" "cm.loss"
           [
             ("mode", Telemetry.Trace.Str "ecn");
             ("cwnd", Telemetry.Trace.Int 4096);
             ("ok", Telemetry.Trace.Bool true);
             ("rate", Telemetry.Trace.Float 1.5);
           ]));
  Engine.run e;
  let b = Buffer.create 256 in
  Telemetry.Trace.to_jsonl b tr;
  let jsonl = Buffer.contents b in
  "jsonl ts in ns" => contains jsonl "\"ts_ns\": 1000000";
  "jsonl phase" => contains jsonl "\"ph\": \"i\"";
  "jsonl typed args"
  => (contains jsonl "\"mode\": \"ecn\"" && contains jsonl "\"cwnd\": 4096"
     && contains jsonl "\"ok\": true" && contains jsonl "\"rate\": 1.5");
  Buffer.clear b;
  Telemetry.Trace.to_chrome b tr;
  let chrome = Buffer.contents b in
  "chrome envelope" => contains chrome "{\"traceEvents\": [";
  "chrome ts in us" => contains chrome "\"ts\": 1000";
  "chrome instant scope" => contains chrome "\"s\": \"g\""

let test_empty_histogram_json_is_finite () =
  (* an empty histogram used to render NaN min/max, which [Json] turns
     into null only since PR8 — assert both the shape and parseability *)
  let m = Telemetry.Metrics.create () in
  ignore (Telemetry.Metrics.histogram m "latency");
  let s = Json.to_string (Telemetry.Metrics.to_json m) in
  "count 0" => contains s "\"count\": 0";
  "min null" => contains s "\"min\": null";
  "p99 null" => contains s "\"p99\": null";
  "no NaN leaks" => not (contains s "nan");
  (match Json.parse s with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("empty-histogram JSON does not parse: " ^ e))

let test_exporters_escape_strings () =
  (* names / args with quotes, backslashes and control chars must come
     out as valid JSON in both exporters *)
  let e = Engine.create () in
  let tr = Telemetry.Trace.create e in
  let evil = "a\"b\\c\nd\te\x01f" in
  ignore
    (Engine.schedule_at e (Time.ms 1) (fun () ->
         Telemetry.Trace.instant tr ~cat:"cat\"\n" evil
           [ ("k\"", Telemetry.Trace.Str evil) ]));
  Engine.run e;
  let b = Buffer.create 256 in
  Telemetry.Trace.to_jsonl b tr;
  let jsonl = Buffer.contents b in
  List.iteri
    (fun i line ->
      if String.trim line <> "" then
        match Json.parse line with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Printf.sprintf "jsonl line %d invalid: %s" i e))
    (String.split_on_char '\n' jsonl);
  (* the escaped string roundtrips through the parser *)
  (match Json.parse (String.trim jsonl) with
  | Ok (Json.Obj kvs) -> (
      match List.assoc_opt "name" kvs with
      | Some (Json.Str s) -> Alcotest.(check string) "name roundtrips" evil s
      | _ -> Alcotest.fail "no name field")
  | _ -> Alcotest.fail "jsonl line did not parse as an object");
  Buffer.clear b;
  Telemetry.Trace.to_chrome b tr;
  match Json.parse (Buffer.contents b) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("chrome export invalid: " ^ e)

(* ---- bounded ring trace ------------------------------------------------ *)

let test_ring_trace_overwrites_oldest () =
  let e = Engine.create () in
  let tr = Telemetry.Trace.create_ring e ~capacity:4 in
  Alcotest.(check int) "capacity" 4 (Telemetry.Trace.capacity tr);
  for i = 1 to 10 do
    ignore
      (Engine.schedule_at e (Time.ms i) (fun () ->
           Telemetry.Trace.instant tr ~cat:"t" "ev" [ ("i", Telemetry.Trace.Int i) ]))
  done;
  Engine.run e;
  Alcotest.(check int) "length capped" 4 (Telemetry.Trace.length tr);
  Alcotest.(check int) "dropped counted" 6 (Telemetry.Trace.dropped tr);
  (* survivors are the newest four, oldest -> newest *)
  let is_ =
    List.map
      (fun ev ->
        match ev.Telemetry.Trace.args with
        | [ ("i", Telemetry.Trace.Int i) ] -> i
        | _ -> -1)
      (Telemetry.Trace.events tr)
  in
  Alcotest.(check (list int)) "newest kept in order" [ 7; 8; 9; 10 ] is_;
  Telemetry.Trace.clear tr;
  Alcotest.(check int) "clear resets length" 0 (Telemetry.Trace.length tr);
  Alcotest.(check int) "clear resets dropped" 0 (Telemetry.Trace.dropped tr)

let test_ring_trace_rejects_bad_capacity () =
  let e = Engine.create () in
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Trace.create_ring: capacity must be positive") (fun () ->
      ignore (Telemetry.Trace.create_ring e ~capacity:0))

(* ---- flight recorder --------------------------------------------------- *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "cm-test-rec-%d" (Unix.getpid ()))
  in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let test_recorder_dump_parses () =
  with_temp_dir (fun dir ->
      let e = Engine.create () in
      let tr = Telemetry.Trace.create_ring e ~capacity:8 in
      let r = Telemetry.Recorder.create e ~out_dir:dir ~tag:"t" tr in
      for i = 1 to 20 do
        ignore
          (Engine.schedule_at e (Time.ms i) (fun () ->
               Telemetry.Trace.instant tr ~cat:"x" "ev" [ ("i", Telemetry.Trace.Int i) ]))
      done;
      Engine.run e;
      let path = Telemetry.Recorder.dump r ~reason:"test \"breach\"" in
      "dump file exists" => Sys.file_exists path;
      Alcotest.(check int) "one dump" 1 (Telemetry.Recorder.dumps r);
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      (* header + the 8 ring survivors *)
      Alcotest.(check int) "header + capacity lines" 9 (List.length lines);
      List.iter
        (fun line ->
          match Json.parse line with
          | Ok _ -> ()
          | Error e -> Alcotest.fail (Printf.sprintf "dump line invalid: %s" e))
        lines;
      match Json.parse (List.hd lines) with
      | Ok (Json.Obj kvs) ->
          "header names reason"
          => (match List.assoc_opt "reason" kvs with
             | Some (Json.Str s) -> s = "test \"breach\""
             | _ -> false);
          "header counts drops"
          => (match List.assoc_opt "dropped" kvs with
             | Some (Json.Int d) -> d = 12
             | _ -> false)
      | _ -> Alcotest.fail "dump header did not parse as an object")

let test_recorder_dumps_on_escape () =
  with_temp_dir (fun dir ->
      let e = Engine.create () in
      let tr = Telemetry.Trace.create_ring e ~capacity:8 in
      let r = Telemetry.Recorder.create e ~out_dir:dir ~tag:"crash" tr in
      ignore
        (Engine.schedule_at e (Time.ms 1) (fun () ->
             Telemetry.Trace.instant tr ~cat:"x" "last-words" []));
      ignore (Engine.schedule_at e (Time.ms 2) (fun () -> failwith "sim bug"));
      (try
         Engine.run e;
         Alcotest.fail "exception swallowed"
       with Failure _ -> ());
      Alcotest.(check int) "crash produced a dump" 1 (Telemetry.Recorder.dumps r);
      match Telemetry.Recorder.last_file r with
      | Some path ->
          let ic = open_in path in
          let header = input_line ic in
          close_in ic;
          "reason mentions the exception" => contains header "sim bug"
      | None -> Alcotest.fail "no dump file recorded")

let test_recorder_creates_nested_dir () =
  with_temp_dir (fun dir ->
      let e = Engine.create () in
      let out_dir = Filename.concat (Filename.concat dir "a") "b" in
      let r = Telemetry.Recorder.create e ~out_dir (Telemetry.Trace.create_ring e ~capacity:8) in
      let path = Telemetry.Recorder.dump r ~reason:"nested" in
      "dump landed in the two-level dir" => Sys.file_exists path;
      Alcotest.(check string) "dump dir" out_dir (Filename.dirname path))

let test_telemetry_ring_mode () =
  let e = Engine.create () in
  let tel = Telemetry.create e ~trace_capacity:2 () in
  let tr = Telemetry.trace tel in
  ignore
    (Engine.schedule_at e (Time.ms 1) (fun () ->
         for i = 1 to 5 do
           Telemetry.Trace.instant tr ~cat:"x" "e" [ ("i", Telemetry.Trace.Int i) ]
         done));
  (* a bounded instance never starts its sampler, so the queue drains *)
  Engine.run e;
  Alcotest.(check int) "bounded" 2 (Telemetry.Trace.length tr);
  Alcotest.(check int) "overwrote" 3 (Telemetry.Trace.dropped tr);
  Alcotest.(check int) "no sampler ticks" 0 (Telemetry.Sampler.ticks (Telemetry.sampler tel))

(* One wiring path: under [params.recorder] a system is watched through a
   bounded telemetry instance attached exactly like full telemetry, so for
   the same seed its ring holds the tail of the full trace. *)
let watched_events params =
  Netsim.Packet.reset_ids ();
  Experiments.Exp_common.with_system params @@ fun sys ->
  let e = Experiments.Exp_common.engine sys in
  let rng = Rng.create ~seed:5 in
  let net =
    Cm_spec.Build.pipe ~rng e
      (Cm_spec.Spec.pipe ~queue:10 ~loss:0.05 ~bw:4e6 ~lat:(Time.ms 10) ())
  in
  let cm = Cm.create e () in
  Cm.attach cm net.Cm_spec.Build.a;
  Experiments.Exp_common.watch sys
    ~links:[ ("ab", net.Cm_spec.Build.ab); ("ba", net.Cm_spec.Build.ba) ]
    ~cm ();
  let _listener = Tcp.Conn.listen net.Cm_spec.Build.b ~port:80 ~on_accept:ignore () in
  let conn =
    Tcp.Conn.connect net.Cm_spec.Build.a
      ~dst:(Netsim.Addr.endpoint ~host:1 ~port:80)
      ~driver:(Tcp.Conn.Cm_driven cm) ()
  in
  Tcp.Conn.send conn (1 lsl 30);
  (* unresponsive cross traffic into the 10-packet queue: thousands of
     link.drop events, so the full trace outgrows the ring *)
  let flow =
    Netsim.Addr.flow
      ~src:(Netsim.Addr.endpoint ~host:0 ~port:9)
      ~dst:(Netsim.Addr.endpoint ~host:1 ~port:9)
      ~proto:Netsim.Addr.Udp ()
  in
  let rec blast () =
    Netsim.Link.send net.Cm_spec.Build.ab
      (Netsim.Packet.make ~now:(Engine.now e) ~flow ~payload_bytes:1000 (Netsim.Packet.Raw 1000));
    ignore (Engine.schedule_after e (Time.ms 1) blast : Engine.handle)
  in
  blast ();
  Engine.run_for e (Time.sec 30.);
  Telemetry.Trace.events (Telemetry.trace (Option.get (Experiments.Exp_common.telemetry sys)))

let test_recorder_ring_is_tail_of_full_trace () =
  with_temp_dir (fun dir ->
      let base = { Experiments.Exp_common.default_params with seed = 5 } in
      let full =
        watched_events
          { base with telemetry = Some (Experiments.Exp_common.request_telemetry ()) }
      in
      let ring = watched_events { base with recorder = Some dir } in
      let n = Telemetry.Recorder.default_capacity in
      let total = List.length full in
      "full trace overflows the ring" => (total > n);
      Alcotest.(check int) "ring is full" n (List.length ring);
      "ring = last N events of the full trace"
      => (ring = List.filteri (fun i _ -> i >= total - n) full))

(* ---- end-to-end determinism ------------------------------------------- *)

(* the scenarios family's outage sub-run: the richest single-system trace *)
let artifacts ~seed =
  let scenarios = Option.get (Experiments.Family.find "scenarios") in
  let run = List.assoc "scenario_outage" scenarios.Experiments.Family.subruns in
  let tel = snd (List.hd (Experiments.Capture.capture ~seed [ ("scenario_outage", run) ])) in
  ( Telemetry.export_jsonl tel,
    Telemetry.export_chrome tel,
    Telemetry.export_csv tel,
    Telemetry.export_metrics_json tel )

let test_same_seed_byte_identical () =
  let a1, c1, s1, m1 = artifacts ~seed:7 in
  let a2, c2, s2, m2 = artifacts ~seed:7 in
  Alcotest.(check string) "jsonl identical" a1 a2;
  Alcotest.(check string) "chrome identical" c1 c2;
  Alcotest.(check string) "csv identical" s1 s2;
  Alcotest.(check string) "metrics identical" m1 m2;
  "trace is non-trivial" => (String.length a1 > 500);
  "csv has macroflow columns" => contains s1 "mf1.cwnd";
  "trace attributes drop causes" => contains a1 "\"cause\": \"down\"";
  "trace classifies congestion" => contains a1 "cm.congestion"

let test_instrumented_run_matches_uninstrumented () =
  (* telemetry must observe, not perturb: the simulation's outcome is
     identical with and without the nil sink replaced by a live one *)
  let run telemetry =
    let params = { Experiments.Exp_common.default_params with seed = 3; telemetry } in
    let m = Experiments.Fig6.measure_macro params Experiments.Fig6.Tcp_cm ~size:1448 ~n:500 in
    (m.Experiments.Fig6.m_events, m.Experiments.Fig6.m_final_clock)
  in
  let base_events, base_clock = run None in
  let tel_events, tel_clock =
    run (Some (Experiments.Exp_common.request_telemetry ()))
  in
  Alcotest.(check int) "virtual end time unchanged" base_clock tel_clock;
  (* the sampler adds its own timer events, so the instrumented run
     executes more engine callbacks — but never fewer *)
  "event count only grows" => (tel_events >= base_events)

let () =
  Alcotest.run "telemetry"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "kind collision rejected" `Quick test_kind_collision_rejected;
          Alcotest.test_case "snapshot order + reset" `Quick test_snapshot_order_and_reset;
          Alcotest.test_case "json snapshot" `Quick test_metrics_json;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "quantiles" `Quick test_histogram_quantiles;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
        ] );
      ( "sampler",
        [
          Alcotest.test_case "virtual-time ticks" `Quick test_sampler_virtual_time;
          Alcotest.test_case "late subscription blanks" `Quick
            test_sampler_late_subscription_blank;
        ] );
      ( "trace",
        [
          Alcotest.test_case "nil sink" `Quick test_trace_nil_sink;
          Alcotest.test_case "events and spans" `Quick test_trace_events_and_spans;
          Alcotest.test_case "exporters" `Quick test_trace_exporters;
          Alcotest.test_case "empty histogram renders finite JSON" `Quick
            test_empty_histogram_json_is_finite;
          Alcotest.test_case "exporters escape hostile strings" `Quick
            test_exporters_escape_strings;
        ] );
      ( "ring",
        [
          Alcotest.test_case "overwrites oldest" `Quick test_ring_trace_overwrites_oldest;
          Alcotest.test_case "bad capacity rejected" `Quick test_ring_trace_rejects_bad_capacity;
          Alcotest.test_case "telemetry trace_capacity bounds" `Quick test_telemetry_ring_mode;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "dump file parses" `Quick test_recorder_dump_parses;
          Alcotest.test_case "dumps on escaping exception" `Quick test_recorder_dumps_on_escape;
          Alcotest.test_case "creates a nested out dir" `Quick test_recorder_creates_nested_dir;
          Alcotest.test_case "ring is the tail of the full trace" `Quick
            test_recorder_ring_is_tail_of_full_trace;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed, identical bytes" `Quick test_same_seed_byte_identical;
          Alcotest.test_case "observation does not perturb" `Quick
            test_instrumented_run_matches_uninstrumented;
        ] );
    ]
