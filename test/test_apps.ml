(* Tests for the applications: layered streaming, vat, web, bulk. *)

open Cm_util
open Eventsim
open Netsim
open Cm_spec

let ( => ) name cond = Alcotest.(check bool) name true cond

let make ?(bandwidth = 8e6) ?(qdisc_limit = 50) () =
  let engine = Engine.create () in
  let net = Build.pipe engine (Spec.pipe ~queue:qdisc_limit ~bw:bandwidth ~lat:(Time.ms 20) ()) in
  let cm = Cm.create engine ~mtu:1000 () in
  Cm.attach cm net.Build.a;
  let lib = Libcm.create net.Build.a cm () in
  (engine, net, cm, lib)

let layers = [| 0.5e6; 1e6; 2e6; 4e6 |]

(* ---- Layered ---------------------------------------------------------- *)

let test_layered_alf_fills_pipe () =
  let engine, net, _cm, lib = make () in
  let _rx = Udp.Cc_socket.run_echo_receiver net.Build.b ~port:5004 () in
  let src =
    Cm_apps.Layered.create lib ~host:net.Build.a
      ~dst:(Addr.endpoint ~host:1 ~port:5004)
      ~layers ~mode:Cm_apps.Layered.Alf ()
  in
  Cm_apps.Layered.start src;
  Engine.run_for engine (Time.sec 10.);
  Cm_apps.Layered.stop src;
  let sent = Cm_apps.Layered.bytes_sent src in
  (* 8 Mbit/s for ~10 s ≈ 10 MB; expect a decent fraction after slow start *)
  "ALF source used most of the link" => (sent > 5_000_000);
  "settled on the top layer" => (Cm_apps.Layered.current_layer src = 3)

let test_layered_alf_tracks_bandwidth_drop () =
  let engine, net, _cm, lib = make () in
  let _rx = Udp.Cc_socket.run_echo_receiver net.Build.b ~port:5004 () in
  Cm_dynamics.Faults.bandwidth_steps engine net.Build.ab [ (Time.sec 5., 0.9e6) ];
  let src =
    Cm_apps.Layered.create lib ~host:net.Build.a
      ~dst:(Addr.endpoint ~host:1 ~port:5004)
      ~layers ~mode:Cm_apps.Layered.Alf ()
  in
  Cm_apps.Layered.start src;
  Engine.run_for engine (Time.sec 15.);
  Cm_apps.Layered.stop src;
  "dropped to a low layer after the squeeze" => (Cm_apps.Layered.current_layer src <= 1)

let test_layered_rate_mode_switches_layers () =
  let engine, net, _cm, lib = make () in
  let _rx = Udp.Cc_socket.run_echo_receiver net.Build.b ~port:5004 () in
  let src =
    Cm_apps.Layered.create lib ~host:net.Build.a
      ~dst:(Addr.endpoint ~host:1 ~port:5004)
      ~layers
      ~mode:(Cm_apps.Layered.Rate_callback { down = 0.9; up = 1.1 })
      ()
  in
  Cm_apps.Layered.start src;
  Alcotest.(check int) "starts at base layer" 0 (Cm_apps.Layered.current_layer src);
  Engine.run_for engine (Time.sec 15.);
  Cm_apps.Layered.stop src;
  "climbed above the base layer" => (Cm_apps.Layered.current_layer src >= 2);
  "timelines recorded" => (Timeline.length (Cm_apps.Layered.tx_timeline src) > 100)

let test_layered_stop_stops () =
  let engine, net, _cm, lib = make () in
  let _rx = Udp.Cc_socket.run_echo_receiver net.Build.b ~port:5004 () in
  let src =
    Cm_apps.Layered.create lib ~host:net.Build.a
      ~dst:(Addr.endpoint ~host:1 ~port:5004)
      ~layers
      ~mode:(Cm_apps.Layered.Rate_callback { down = 0.9; up = 1.1 })
      ()
  in
  Cm_apps.Layered.start src;
  Engine.run_for engine (Time.sec 2.);
  Cm_apps.Layered.stop src;
  let sent = Cm_apps.Layered.packets_sent src in
  Engine.run_for engine (Time.sec 2.);
  Alcotest.(check int) "no packets after stop" sent (Cm_apps.Layered.packets_sent src)

(* ---- Vat --------------------------------------------------------------- *)

let test_vat_full_rate_when_bandwidth_ample () =
  let engine, net, _cm, lib = make ~bandwidth:1e6 () in
  let _rx = Cm_apps.Vat.Receiver.create net.Build.b ~port:5006 () in
  let vat =
    Cm_apps.Vat.create lib ~host:net.Build.a ~dst:(Addr.endpoint ~host:1 ~port:5006) ()
  in
  Cm_apps.Vat.start vat;
  Engine.run_for engine (Time.sec 10.);
  Cm_apps.Vat.stop vat;
  let s = Cm_apps.Vat.stats vat in
  (* 50 frames/s for 10 s = 500 frames; allow warmup losses *)
  "nearly all frames sent" => (s.Cm_apps.Vat.frames_sent > 450);
  "few policer drops" => (s.Cm_apps.Vat.policer_drops < 30)

let test_vat_polices_under_squeeze () =
  let engine, net, _cm, lib = make ~bandwidth:32e3 ~qdisc_limit:10 () in
  let rx = Cm_apps.Vat.Receiver.create net.Build.b ~port:5006 () in
  let vat =
    Cm_apps.Vat.create lib ~host:net.Build.a ~dst:(Addr.endpoint ~host:1 ~port:5006) ()
  in
  Cm_apps.Vat.start vat;
  Engine.run_for engine (Time.sec 20.);
  Cm_apps.Vat.stop vat;
  let s = Cm_apps.Vat.stats vat in
  "source kept producing" => (s.Cm_apps.Vat.frames_in > 900);
  "policer shed a large fraction" => (s.Cm_apps.Vat.policer_drops + s.Cm_apps.Vat.buffer_drops > 300);
  "but frames still flowed" => (Cm_apps.Vat.Receiver.frames_received rx > 50);
  (* delivered rate must be near the link rate, not the source rate *)
  let delivered_bps =
    float_of_int (Cm_apps.Vat.Receiver.frames_received rx * 160 * 8) /. 20.
  in
  "delivered near link capacity" => (delivered_bps < 40_000.)

let test_vat_app_buffer_bounds_delay () =
  let engine, net, _cm, lib = make ~bandwidth:48e3 ~qdisc_limit:5 () in
  let rx = Cm_apps.Vat.Receiver.create net.Build.b ~port:5006 () in
  let vat =
    Cm_apps.Vat.create lib ~host:net.Build.a
      ~dst:(Addr.endpoint ~host:1 ~port:5006)
      ~app_buffer_frames:5 ()
  in
  Cm_apps.Vat.start vat;
  Engine.run_for engine (Time.sec 20.);
  Cm_apps.Vat.stop vat;
  let d = Cm_apps.Vat.Receiver.delay_stats rx in
  (* app buffer 5 frames + small kernel queue: delay stays well under a
     second even though the source is twice the link rate *)
  "frames delivered" => (Stats.count d > 50);
  "p-max delay bounded" => (Stats.max_value d < 1_000.)


let test_vat_playout_accounting () =
  (* ample bandwidth: with a 100 ms playout offset essentially every frame
     makes its slot *)
  let engine, net, _cm, lib = make ~bandwidth:1e6 () in
  let rx = Cm_apps.Vat.Receiver.create net.Build.b ~port:5006 () in
  let vat =
    Cm_apps.Vat.create lib ~host:net.Build.a ~dst:(Addr.endpoint ~host:1 ~port:5006) ()
  in
  Cm_apps.Vat.start vat;
  Engine.run_for engine (Time.sec 10.);
  Cm_apps.Vat.stop vat;
  let on_time = Cm_apps.Vat.Receiver.playout_on_time rx in
  let late = Cm_apps.Vat.Receiver.playout_late rx in
  Alcotest.(check int) "every frame accounted"
    (Cm_apps.Vat.Receiver.frames_received rx)
    (on_time + late);
  "nearly all on time" => (late * 20 < on_time)

let test_vat_playout_late_under_squeeze () =
  (* a 32 kbit/s link under a 64 kbit/s source with a tight 40 ms playout
     budget: a visible fraction of frames misses playout *)
  let run delay =
    let engine, net, _cm, lib = make ~bandwidth:32e3 ~qdisc_limit:10 () in
    let rx =
      Cm_apps.Vat.Receiver.create net.Build.b ~port:5006 ~playout_delay:delay ()
    in
    let vat =
      Cm_apps.Vat.create lib ~host:net.Build.a ~dst:(Addr.endpoint ~host:1 ~port:5006) ()
    in
    Cm_apps.Vat.start vat;
    Engine.run_for engine (Time.sec 20.);
    Cm_apps.Vat.stop vat;
    (Cm_apps.Vat.Receiver.playout_on_time rx, Cm_apps.Vat.Receiver.playout_late rx)
  in
  let _on_tight, late_tight = run (Time.ms 40) in
  let _on_loose, late_loose = run (Time.sec 2.) in
  "tight budget misses frames" => (late_tight > 10);
  "larger playout delay absorbs jitter" => (late_loose < late_tight)

(* ---- Web ----------------------------------------------------------------- *)

let test_web_fetch_roundtrip () =
  let engine, net, _cm, _lib = make () in
  let _server = Cm_apps.Web.server net.Build.b ~port:80 ~file_bytes:50_000 () in
  let result = ref None in
  Cm_apps.Web.fetch net.Build.a
    ~dst:(Addr.endpoint ~host:1 ~port:80)
    ~expect_bytes:50_000
    ~on_done:(fun r -> result := Some r)
    ();
  Engine.run_for engine (Time.sec 5.);
  match !result with
  | Some r ->
      Alcotest.(check int) "whole file received" 50_000 r.Cm_apps.Web.bytes;
      "took at least two RTTs" => (r.Cm_apps.Web.duration >= Time.ms 80)
  | None -> Alcotest.fail "fetch did not complete"

let test_web_sequential_ordering () =
  let engine, net, _cm, _lib = make () in
  let _server = Cm_apps.Web.server net.Build.b ~port:80 ~file_bytes:10_000 () in
  let results = ref [] in
  Cm_apps.Web.sequential_fetches net.Build.a
    ~dst:(Addr.endpoint ~host:1 ~port:80)
    ~expect_bytes:10_000 ~count:4 ~gap:(Time.ms 300)
    ~on_done:(fun rs -> results := rs)
    ();
  Engine.run_for engine (Time.sec 5.);
  Alcotest.(check int) "all four fetches" 4 (List.length !results);
  let starts = List.map (fun r -> r.Cm_apps.Web.started_at) !results in
  let gaps = List.map2 Time.diff (List.tl starts) (List.filteri (fun i _ -> i < 3) starts) in
  List.iter (fun g -> Alcotest.(check int) "starts 300ms apart" (Time.ms 300) g) gaps

let test_web_concurrent_all_complete () =
  let engine, net, _cm, _lib = make () in
  let _server = Cm_apps.Web.server net.Build.b ~port:80 ~file_bytes:100_000 () in
  let results = ref [] in
  Cm_apps.Web.concurrent_fetches net.Build.a
    ~dst:(Addr.endpoint ~host:1 ~port:80)
    ~expect_bytes:100_000 ~count:4
    ~on_done:(fun rs -> results := rs)
    ();
  Engine.run_for engine (Time.sec 10.);
  Alcotest.(check int) "all four complete" 4 (List.length !results);
  List.iter
    (fun r -> Alcotest.(check int) "full file each" 100_000 r.Cm_apps.Web.bytes)
    !results


let test_adaptive_server_picks_encoding () =
  (* no estimate -> smallest; after traffic teaches the macroflow -> a
     larger encoding that fits the 1 s budget *)
  let engine = Engine.create () in
  let net = Build.pipe engine (Spec.pipe ~bw:2e6 ~lat:(Time.ms 20) ()) in
  let cm = Cm.create engine () in
  Cm.attach cm net.Build.b;
  let _server =
    Cm_apps.Web.adaptive_server net.Build.b ~cm ~port:80
      ~encodings:[| 10_000; 50_000; 200_000 |]
      ~target_latency:(Time.sec 1.)
      ~driver:(Tcp.Conn.Cm_driven cm) ()
  in
  let sizes = ref [] in
  let fetch () =
    let conn = Tcp.Conn.connect net.Build.a ~dst:(Addr.endpoint ~host:1 ~port:80) () in
    let received = ref 0 in
    Tcp.Conn.on_established conn (fun () -> Tcp.Conn.send conn 100);
    Tcp.Conn.on_receive conn (fun n -> received := !received + n);
    received
  in
  let r1 = fetch () in
  Engine.run_for engine (Time.sec 3.);
  sizes := !r1 :: !sizes;
  let r2 = fetch () in
  Engine.run_for engine (Time.sec 3.);
  sizes := !r2 :: !sizes;
  (match List.rev !sizes with
  | [ first; second ] ->
      Alcotest.(check int) "first request: conservative smallest encoding" 10_000 first;
      (* 2 Mbit/s for 1 s = 250 KB budget; the estimate is conservative but
         must at least step up *)
      "second request serves a larger encoding" => (second > first)
  | _ -> Alcotest.fail "expected two fetches")

(* ---- Bulk ------------------------------------------------------------------ *)

let test_bulk_tcp_push () =
  let engine = Engine.create () in
  let net = Build.pipe engine (Spec.pipe ~bw:1e7 ~lat:(Time.ms 5) ()) in
  let transfer = Cm_apps.Bulk.create ~bytes:(100 * 8192) in
  Cm_apps.Bulk.tcp_push transfer ~src:net.Build.a ~dst_host:net.Build.b ~port:5010 ();
  Engine.run_for engine (Time.sec 10.);
  match transfer.Cm_apps.Bulk.finished_at with
  | Some at ->
      Alcotest.(check int) "all bytes" (100 * 8192) transfer.Cm_apps.Bulk.delivered;
      "credible throughput" => (float_of_int (100 * 8192 * 8) /. Time.to_float_s at > 1e6)
  | None -> Alcotest.fail "bulk tcp push did not finish"

(* A backlogged CC-UDP source through Launch, stopped after 1 s and
   left 9 s to drain: UDP does not retransmit, so slow-start overshoot
   losses are final, but the vast majority must still arrive *)
let test_bulk_udp_cc_push () =
  let engine = Engine.create () in
  let net =
    Build.pipe engine
      (Spec.par
         [
           Spec.pipe ~bw:1e7 ~lat:(Time.ms 5) ();
           Spec.cm ~mtu:1000 [ "a" ];
           Spec.flows ~name:"push" ~src:[ "a" ] ~dst:"b" ~port:5011
             ~app:(Spec.datagram ~refill:(Time.ms 10))
             ~stop:(Time.sec 1.) ();
         ])
  in
  let running = Launch.run net.Build.net () in
  let { Launch.socket; echo; _ } = Launch.datagrams (Launch.find running "push") 0 in
  Engine.run_for engine (Time.sec 10.);
  let sent = Udp.Cc_socket.bytes_sent socket in
  let received = Udp.Feedback.Receiver.bytes_received echo in
  "sent a backlog's worth" => (sent > 500_000);
  "most bytes arrived" => (received * 10 > sent * 7);
  "nothing beyond what was sent" => (received <= sent)

let () =
  Alcotest.run "apps"
    [
      ( "layered",
        [
          Alcotest.test_case "alf fills the pipe" `Quick test_layered_alf_fills_pipe;
          Alcotest.test_case "alf tracks bandwidth drop" `Quick
            test_layered_alf_tracks_bandwidth_drop;
          Alcotest.test_case "rate mode climbs layers" `Quick test_layered_rate_mode_switches_layers;
          Alcotest.test_case "stop stops" `Quick test_layered_stop_stops;
        ] );
      ( "vat",
        [
          Alcotest.test_case "full rate when ample" `Quick test_vat_full_rate_when_bandwidth_ample;
          Alcotest.test_case "polices under squeeze" `Quick test_vat_polices_under_squeeze;
          Alcotest.test_case "buffer bounds delay" `Quick test_vat_app_buffer_bounds_delay;
          Alcotest.test_case "playout accounting" `Quick test_vat_playout_accounting;
          Alcotest.test_case "playout under squeeze" `Quick test_vat_playout_late_under_squeeze;
        ] );
      ( "web",
        [
          Alcotest.test_case "fetch roundtrip" `Quick test_web_fetch_roundtrip;
          Alcotest.test_case "sequential spacing" `Quick test_web_sequential_ordering;
          Alcotest.test_case "concurrent completion" `Quick test_web_concurrent_all_complete;
          Alcotest.test_case "adaptive encoding choice" `Quick test_adaptive_server_picks_encoding;
        ] );
      ( "bulk",
        [
          Alcotest.test_case "tcp push" `Quick test_bulk_tcp_push;
          Alcotest.test_case "udp cc push" `Quick test_bulk_udp_cc_push;
        ] );
    ]
