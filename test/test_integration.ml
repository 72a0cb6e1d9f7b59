(* End-to-end integration tests: whole-system behaviours the paper claims,
   exercised across every layer (engine, network, CM, transports, apps). *)

open Cm_util
open Eventsim
open Netsim
open Cm_spec

let ( => ) name cond = Alcotest.(check bool) name true cond

(* The CM's headline safety claim: a TCP/CM flow competing with a native
   TCP flow through the same bottleneck gets a comparable share — the CM
   is TCP-compatible. *)
let test_cm_flow_is_tcp_friendly () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:5 in
  let net =
    Build.pipe ~rng engine (Spec.pipe ~queue:60 ~loss:0.003 ~bw:8e6 ~lat:(Time.ms 25) ())
  in
  let cm = Cm.create engine () in
  Cm.attach cm net.Build.a;
  let d_native = ref 0 and d_cm = ref 0 in
  let _l1 =
    Tcp.Conn.listen net.Build.b ~port:80
      ~on_accept:(fun c -> Tcp.Conn.on_receive c (fun n -> d_native := !d_native + n))
      ()
  in
  let _l2 =
    Tcp.Conn.listen net.Build.b ~port:81
      ~on_accept:(fun c -> Tcp.Conn.on_receive c (fun n -> d_cm := !d_cm + n))
      ()
  in
  let c1 = Tcp.Conn.connect net.Build.a ~dst:(Addr.endpoint ~host:1 ~port:80) () in
  let c2 =
    Tcp.Conn.connect net.Build.a
      ~dst:(Addr.endpoint ~host:1 ~port:81)
      ~driver:(Tcp.Conn.Cm_driven cm) ()
  in
  Tcp.Conn.send c1 (1 lsl 28);
  Tcp.Conn.send c2 (1 lsl 28);
  Engine.run_for engine (Time.sec 30.);
  let hi = float_of_int (Stdlib.max !d_native !d_cm) in
  let lo = float_of_int (Stdlib.max 1 (Stdlib.min !d_native !d_cm)) in
  "both flows made real progress" => (!d_native > 2_000_000 && !d_cm > 2_000_000);
  "shares within 3x of each other" => (hi /. lo < 3.0)

(* An ensemble of CM flows to one destination must not out-compete a
   single native flow: the whole macroflow behaves like one TCP. *)
let test_macroflow_ensemble_not_aggressive () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:6 in
  let net =
    Build.pipe ~rng engine (Spec.pipe ~queue:60 ~loss:0.003 ~bw:8e6 ~lat:(Time.ms 25) ())
  in
  let cm = Cm.create engine () in
  Cm.attach cm net.Build.a;
  let d_native = ref 0 and d_cm = ref 0 in
  let _l1 =
    Tcp.Conn.listen net.Build.b ~port:80
      ~on_accept:(fun c -> Tcp.Conn.on_receive c (fun n -> d_native := !d_native + n))
      ()
  in
  let _l2 =
    Tcp.Conn.listen net.Build.b ~port:81
      ~on_accept:(fun c -> Tcp.Conn.on_receive c (fun n -> d_cm := !d_cm + n))
      ()
  in
  let native = Tcp.Conn.connect net.Build.a ~dst:(Addr.endpoint ~host:1 ~port:80) () in
  Tcp.Conn.send native (1 lsl 28);
  (* four concurrent CM connections share one macroflow *)
  let cm_conns =
    List.init 4 (fun _ ->
        let c =
          Tcp.Conn.connect net.Build.a
            ~dst:(Addr.endpoint ~host:1 ~port:81)
            ~driver:(Tcp.Conn.Cm_driven cm) ()
        in
        Tcp.Conn.send c (1 lsl 26);
        c)
  in
  (match List.map (fun c -> Tcp.Conn.cm_flow c) cm_conns with
  | Some f :: rest ->
      List.iter
        (function
          | Some g -> Alcotest.(check int) "one macroflow" (Cm.macroflow_id cm f) (Cm.macroflow_id cm g)
          | None -> Alcotest.fail "missing cm flow")
        rest
  | _ -> Alcotest.fail "no flows");
  Engine.run_for engine (Time.sec 30.);
  let ensemble = float_of_int !d_cm and single = float_of_int (Stdlib.max 1 !d_native) in
  "ensemble of 4 got less than 3x a single native flow" => (ensemble /. single < 3.0)

(* UDP CC flow competing with TCP through the same bottleneck: the CM
   congestion-controls the UDP application too. *)
let test_cc_udp_coexists_with_tcp () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:7 in
  let net =
    Build.pipe ~rng engine (Spec.pipe ~queue:50 ~bw:6e6 ~lat:(Time.ms 20) ())
  in
  let cm = Cm.create engine ~mtu:1000 () in
  Cm.attach cm net.Build.a;
  let d_tcp = ref 0 in
  let _l =
    Tcp.Conn.listen net.Build.b ~port:80
      ~on_accept:(fun c -> Tcp.Conn.on_receive c (fun n -> d_tcp := !d_tcp + n))
      ()
  in
  let tcp_conn = Tcp.Conn.connect net.Build.a ~dst:(Addr.endpoint ~host:1 ~port:80) () in
  Tcp.Conn.send tcp_conn (1 lsl 27);
  let receiver = Udp.Cc_socket.run_echo_receiver net.Build.b ~port:6000 () in
  let sock = Udp.Cc_socket.create net.Build.a ~cm ~dst:(Addr.endpoint ~host:1 ~port:6000) () in
  let feeder =
    Timer.create engine ~callback:(fun () ->
        let room = 64 - Udp.Cc_socket.queued sock in
        for _ = 1 to room do
          Udp.Cc_socket.send sock 1000
        done)
  in
  Timer.start_periodic feeder (Time.ms 50);
  Engine.run_for engine (Time.sec 20.);
  Timer.stop feeder;
  let udp_bytes = Udp.Feedback.Receiver.bytes_received receiver in
  "tcp made progress" => (!d_tcp > 2_000_000);
  "udp made progress" => (udp_bytes > 2_000_000);
  let hi = float_of_int (Stdlib.max !d_tcp udp_bytes) in
  let lo = float_of_int (Stdlib.max 1 (Stdlib.min !d_tcp udp_bytes)) in
  "both within 4x" => (hi /. lo < 4.0)

(* Determinism: identical seeds give byte-identical outcomes. *)
let test_runs_are_deterministic () =
  let run () =
    let engine = Engine.create () in
    let rng = Rng.create ~seed:99 in
    let net =
      Build.pipe ~rng engine (Spec.pipe ~loss:0.01 ~bw:5e6 ~lat:(Time.ms 15) ())
    in
    let delivered = ref 0 in
    let _l =
      Tcp.Conn.listen net.Build.b ~port:80
        ~on_accept:(fun c -> Tcp.Conn.on_receive c (fun n -> delivered := !delivered + n))
        ()
    in
    let c = Tcp.Conn.connect net.Build.a ~dst:(Addr.endpoint ~host:1 ~port:80) () in
    Tcp.Conn.send c 1_000_000;
    Engine.run_for engine (Time.sec 10.);
    let st = Tcp.Conn.stats c in
    (!delivered, st.Tcp.Conn.segments_out, st.Tcp.Conn.retransmits, Engine.events_executed engine)
  in
  let a = run () and b = run () in
  Alcotest.(check (pair int int)) "identical delivery and segments"
    (let d, s, _, _ = a in
     (d, s))
    (let d, s, _, _ = b in
     (d, s));
  let _, _, r1, e1 = a and _, _, r2, e2 = b in
  Alcotest.(check int) "identical retransmissions" r1 r2;
  Alcotest.(check int) "identical event counts" e1 e2

(* Determinism of the Fig. 6 macro workload: the lazy-cancel event core
   must not let cancelled-entry compaction or handle reuse perturb event
   ordering.  Two runs with the same seed must agree on every simulator
   counter, not just the headline throughput. *)
let test_fig6_macro_deterministic () =
  let params = { Experiments.Exp_common.default_params with seed = 42 } in
  let run () =
    Experiments.Fig6.measure_macro params Experiments.Fig6.Tcp_cm ~size:1448 ~n:2_000
  in
  let a = run () and b = run () in
  let open Experiments.Fig6 in
  "events executed" => (a.m_events > 0);
  Alcotest.(check int) "identical events executed" a.m_events b.m_events;
  Alcotest.(check int) "identical final clock"
    (a.m_final_clock : Time.t :> int) (b.m_final_clock : Time.t :> int);
  Alcotest.(check (float 0.)) "identical us/packet" a.m_us_per_packet b.m_us_per_packet;
  let check_link name (x : Link.stats) (y : Link.stats) =
    Alcotest.(check (list int))
      (name ^ " link stats")
      [ x.Link.enqueued_pkts; x.delivered_pkts; x.delivered_bytes;
        x.queue_drops; x.channel_drops; x.ecn_marks ]
      [ y.Link.enqueued_pkts; y.delivered_pkts; y.delivered_bytes;
        y.queue_drops; y.channel_drops; y.ecn_marks ]
  in
  check_link "forward" a.m_fwd b.m_fwd;
  check_link "reverse" a.m_rev b.m_rev

(* Clients behind a shared trunk, end to end: several clients fetch
   through the shared bottleneck; everything completes and the
   bottleneck is shared. *)
let test_star_web_workload () =
  let engine = Engine.create () in
  let net =
    Build.instantiate engine
      (Check.elaborate_exn
         Spec.(
           node "server"
           @ clients ~n:3 ~per:[ "server" ] ~bw:1e8 ~lat:(Time.ms 1) ~trunk_bw:8e6
               ~trunk_lat:(Time.ms 20) ()))
  in
  let server = Build.host net "server" in
  let cm = Cm.create engine () in
  Cm.attach cm server;
  let macroflows = ref [] in
  let _server =
    Tcp.Conn.listen server ~port:80 ~driver:(Tcp.Conn.Cm_driven cm)
      ~on_accept:(fun conn ->
        (match Tcp.Conn.cm_flow conn with
        | Some fid -> macroflows := Cm.macroflow_id cm fid :: !macroflows
        | None -> Alcotest.fail "server connection has no CM flow");
        let responded = ref false in
        Tcp.Conn.on_receive conn (fun _ ->
            if not !responded then begin
              responded := true;
              Tcp.Conn.send conn 200_000;
              Tcp.Conn.close conn
            end))
      ()
  in
  let done_count = ref 0 in
  List.iter
    (fun client ->
      Cm_apps.Web.fetch (Build.host net client)
        ~dst:(Addr.endpoint ~host:0 ~port:80)
        ~expect_bytes:200_000
        ~on_done:(fun r ->
          Alcotest.(check int) "full file" 200_000 r.Cm_apps.Web.bytes;
          incr done_count)
        ())
    (Spec.client_names ~n:3 ~servers:[ "server" ] ());
  Engine.run_for engine (Time.sec 20.);
  Alcotest.(check int) "all three clients served" 3 !done_count;
  (* three different destinations => three macroflows at the server *)
  Alcotest.(check int) "per-destination macroflows" 3
    (List.length (List.sort_uniq Stdlib.compare !macroflows))

(* ECN end to end: a CM flow through a RED+ECN bottleneck adapts via
   marks, with far fewer drops than with drop-tail. *)
let test_ecn_path_through_cm () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:8 in
  let a = Host.create engine ~id:0 () in
  let b = Host.create engine ~id:1 () in
  let qdisc = Queue_disc.red ~ecn:true ~min_th:5 ~max_th:15 ~limit_pkts:50 ~rng () in
  let ab =
    Link.create engine ~bandwidth_bps:4e6 ~delay:(Time.ms 15) ~qdisc
      ~sink:(fun p -> Host.deliver b p)
      ()
  in
  let ba =
    Link.create engine ~bandwidth_bps:4e6 ~delay:(Time.ms 15)
      ~sink:(fun p -> Host.deliver a p)
      ()
  in
  Host.attach_route a (Link.send ab);
  Host.attach_route b (Link.send ba);
  let cm = Cm.create engine () in
  Cm.attach cm a;
  let config = { Tcp.Conn.default_config with Tcp.Conn.ecn = true } in
  let delivered = ref 0 in
  let _l =
    Tcp.Conn.listen b ~port:80 ~config
      ~on_accept:(fun c -> Tcp.Conn.on_receive c (fun n -> delivered := !delivered + n))
      ()
  in
  let c =
    Tcp.Conn.connect a
      ~dst:(Addr.endpoint ~host:1 ~port:80)
      ~driver:(Tcp.Conn.Cm_driven cm) ~config ()
  in
  Tcp.Conn.send c 3_000_000;
  Engine.run_for engine (Time.sec 20.);
  Alcotest.(check int) "delivered over ECN path" 3_000_000 !delivered;
  let stats = Link.stats ab in
  "marks were applied" => (stats.Link.ecn_marks > 0);
  (* the flow keeps delivering with a meaningful share of congestion
     signaled by marks rather than drops *)
  "marks are a substantial signal"
  => (stats.Link.ecn_marks * 2 > stats.Link.queue_drops)

(* Experiment smoke tests: each paper experiment runs and its headline
   shape holds. *)
let quick_params = { Experiments.Exp_common.default_params with seed = 42 }

let test_fig3_shape () =
  let rows = Experiments.Fig3.run quick_params in
  let at pct =
    List.find (fun r -> Float.abs (r.Experiments.Fig3.loss_pct -. pct) < 0.01) rows
  in
  let low = at 0.5 and high = at 5.0 in
  "throughput declines with loss"
  => (low.Experiments.Fig3.linux_kbps > 2. *. high.Experiments.Fig3.linux_kbps);
  (* TCP-compatibility: the curves track within a factor ~2 where loss dominates *)
  List.iter
    (fun r ->
      if r.Experiments.Fig3.loss_pct >= 0.25 then begin
        let ratio = r.Experiments.Fig3.linux_kbps /. Float.max 1. r.Experiments.Fig3.cm_kbps in
        "cm within 2.5x of linux" => (ratio < 2.5 && ratio > 0.4)
      end)
    rows

let test_fig7_shape () =
  let rows = Experiments.Fig7.run quick_params in
  let first = List.hd rows and last = List.nth rows (List.length rows - 1) in
  "first CM request is slower (initial window 1 vs 2)"
  => (first.Experiments.Fig7.cm_ms > first.Experiments.Fig7.linux_ms);
  "later CM requests are much faster (state sharing)"
  => (last.Experiments.Fig7.cm_ms < 0.7 *. last.Experiments.Fig7.linux_ms);
  "linux requests are flat"
  => (Float.abs (last.Experiments.Fig7.linux_ms -. first.Experiments.Fig7.linux_ms)
      < 0.1 *. first.Experiments.Fig7.linux_ms)

let test_fig6_shape () =
  (* one small size is enough for the ordering claim in a unit test *)
  let series = Experiments.Fig6.run_table1 quick_params in
  let count_of v kind =
    let row =
      List.find (fun r -> r.Experiments.Fig6.t1_variant = v) series
    in
    match List.assoc_opt kind row.Experiments.Fig6.ops_per_packet with
    | Some c -> c
    | None -> 0.
  in
  "alf adds a request ioctl"
  => (count_of Experiments.Fig6.Alf "ioctl(request)" > 0.9);
  "buffered has no request ioctl"
  => (count_of Experiments.Fig6.Buffered "ioctl(request)" < 0.1);
  "noconnect adds the notify ioctl"
  => (count_of Experiments.Fig6.Alf_noconnect "ioctl(notify)" > 0.9
      && count_of Experiments.Fig6.Alf "ioctl(notify)" < 0.1);
  "tcp pays no recv" => (count_of Experiments.Fig6.Tcp_linux "recv" < 0.1)

let test_phttp_shape () =
  let rows = Experiments.Sec6_phttp.run quick_params in
  match rows with
  | [ p_clean; _p_loss; c_clean; _c_loss ] ->
      let span a =
        Array.fold_left Float.max 0. a -. Array.fold_left Float.min Float.infinity a
      in
      (* parallelism of downloads: P-HTTP serializes first bytes, the CM
         delivers all objects' first chunks almost simultaneously *)
      "phttp serializes first chunks"
      => (span p_clean.Experiments.Sec6_phttp.first_chunk_ms
          > 5. *. span c_clean.Experiments.Sec6_phttp.first_chunk_ms)
  | _ -> Alcotest.fail "expected four rows"

let test_content_adaptation_meets_target () =
  let rows = Experiments.Content_adapt.run quick_params in
  List.iter
    (fun r ->
      (* after the first (estimate-free) request, the adaptive server must
         meet the 1 s budget on every path *)
      List.iteri
        (fun i f ->
          if i > 0 then
            "adaptive under budget"
            => (f.Experiments.Content_adapt.latency_ms < 1_000.))
        r.Experiments.Content_adapt.adaptive)
    rows;
  (* the fixed server must blow the budget on the slowest path *)
  let slow = List.nth rows (List.length rows - 1) in
  let worst =
    List.fold_left
      (fun acc f -> Float.max acc f.Experiments.Content_adapt.latency_ms)
      0. slow.Experiments.Content_adapt.fixed
  in
  "fixed blows the budget on the slow path" => (worst > 2_000.)

let test_merged_macroflow_less_aggressive () =
  match Experiments.Ext_merge.run quick_params with
  | [ separate; merged ] ->
      "separate pair out-competes one TCP"
      => (separate.Experiments.Ext_merge.pair_to_reference > 1.5);
      "merged pair takes about one TCP share"
      => (merged.Experiments.Ext_merge.pair_to_reference < 1.5)
  | _ -> Alcotest.fail "expected two rows"


let test_fig4_5_shape () =
  let rows = Experiments.Fig4_5.run quick_params in
  List.iter
    (fun r ->
      let open Experiments.Fig4_5 in
      (* throughput within 0.5%; CPU delta within (0, 2%) *)
      "throughput parity"
      => (Float.abs (r.linux_kbps -. r.cm_kbps) /. r.linux_kbps < 0.005);
      "cpu delta small and positive"
      => (r.cm_cpu_pct -. r.linux_cpu_pct > 0. && r.cm_cpu_pct -. r.linux_cpu_pct < 2.))
    rows

let test_fig8_tracks_schedule () =
  let s = Experiments.Fig8_10.(run quick_params Fig8) in
  let rate_at t_s =
    List.fold_left
      (fun acc p ->
        if Float.abs (p.Experiments.Fig8_10.t_s -. t_s) < 0.5 then
          p.Experiments.Fig8_10.tx_kbps
        else acc)
      0. s.Experiments.Fig8_10.samples
  in
  (* schedule: 18 Mbit/s until 5 s, 3 Mbit/s from 10-15 s, 18 again at 20 s *)
  "high at t=4" => (rate_at 4. > 1_500.);
  "low at t=13" => (rate_at 13. < 600.);
  "recovered at t=23" => (rate_at 23. > 1_500.)


let test_fairness_jain () =
  match Experiments.Ablations.run_fairness quick_params with
  | [ native; cm_only; _mix ] ->
      "native ensemble reasonably fair" => (native.Experiments.Ablations.jain > 0.9);
      "cm macroflow perfectly fair" => (cm_only.Experiments.Ablations.jain > 0.999)
  | _ -> Alcotest.fail "expected three rows"

(* ------------------------------------------------------------------ *)
(* The family registry behind cm_expt, trace, report and spec *)

module Family = Experiments.Family
module Capture = Experiments.Capture

let test_registry_names_and_specs () =
  let names = List.map (fun (f : Family.t) -> f.name) Family.all in
  "family names unique" => (List.length (List.sort_uniq compare names) = List.length names);
  List.iter
    (fun fixed -> (fixed ^ " is a fixed subcommand") => not (List.mem fixed names))
    [ "all"; "trace"; "report"; "scale"; "spec"; "soak" ];
  List.iter
    (fun (f : Family.t) ->
      List.iter
        (fun (sub, spec) ->
          Alcotest.(check (list string))
            (f.name ^ "/" ^ sub ^ " elaborates cleanly")
            []
            (List.map Cm_spec.Check.diag_str (Cm_spec.Check.check spec)))
        f.specs)
    Family.all

let test_newly_traceable_family () =
  (* micro builds two small systems; writing into fresh nested directories
     also checks that missing parents are created *)
  let micro = Option.get (Family.find "micro") in
  let root = Filename.temp_dir "cm-capture" "" in
  let trace sub = Capture.trace ~out_dir:(Filename.concat root (sub ^ "/nested")) ~seed:1 micro in
  let a = trace "a" and b = trace "b" in
  "at least one system captured" => (List.length a >= 4);
  let read path = In_channel.with_open_bin path In_channel.input_all in
  List.iter2
    (fun (x : Capture.artifact) (y : Capture.artifact) ->
      Alcotest.(check string) (x.a_name ^ " byte-identical") (read x.a_path) (read y.a_path))
    a b;
  List.iter (fun (x : Capture.artifact) -> Sys.remove x.a_path) (a @ b);
  List.iter Sys.rmdir
    (List.map (Filename.concat root) [ "a/nested"; "b/nested"; "a"; "b" ] @ [ root ])

let () =
  Alcotest.run "integration"
    [
      ( "coexistence",
        [
          Alcotest.test_case "cm flow is tcp-friendly" `Quick test_cm_flow_is_tcp_friendly;
          Alcotest.test_case "ensemble not aggressive" `Quick
            test_macroflow_ensemble_not_aggressive;
          Alcotest.test_case "cc-udp coexists with tcp" `Quick test_cc_udp_coexists_with_tcp;
        ] );
      ( "system",
        [
          Alcotest.test_case "deterministic runs" `Quick test_runs_are_deterministic;
          Alcotest.test_case "fig6 macro determinism" `Quick test_fig6_macro_deterministic;
          Alcotest.test_case "star web workload" `Quick test_star_web_workload;
          Alcotest.test_case "ecn path through cm" `Quick test_ecn_path_through_cm;
        ] );
      ( "experiment-shapes",
        [
          Alcotest.test_case "fig3 shape" `Slow test_fig3_shape;
          Alcotest.test_case "fig7 shape" `Slow test_fig7_shape;
          Alcotest.test_case "fig6/table1 shape" `Slow test_fig6_shape;
          Alcotest.test_case "sec6 phttp shape" `Slow test_phttp_shape;
          Alcotest.test_case "content adaptation target" `Slow
            test_content_adaptation_meets_target;
          Alcotest.test_case "merged macroflow share" `Slow
            test_merged_macroflow_less_aggressive;
          Alcotest.test_case "fig4/5 shape" `Slow test_fig4_5_shape;
          Alcotest.test_case "fig8 tracks schedule" `Slow test_fig8_tracks_schedule;
          Alcotest.test_case "fairness jain index" `Slow test_fairness_jain;
        ] );
      ( "registry",
        [
          Alcotest.test_case "names and specs" `Quick test_registry_names_and_specs;
          Alcotest.test_case "newly traceable family" `Quick test_newly_traceable_family;
        ] );
    ]
