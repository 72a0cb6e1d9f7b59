(* TCP correctness tests: handshake, transfer, loss recovery, teardown,
   both congestion-control drivers. *)

open Cm_util
open Eventsim
open Netsim
open Cm_spec

let ( => ) name cond = Alcotest.(check bool) name true cond

type harness = {
  engine : Engine.t;
  net : Build.pipe;
  mutable server_conn : Tcp.Conn.t option;
  mutable delivered : int;
  mutable server_closed : bool;
}

(* Build a pipe and a listening server that records delivered bytes. *)
let make ?(bandwidth = 1e7) ?(delay = Time.ms 10) ?(loss = 0.) ?(seed = 1)
    ?(config = Tcp.Conn.default_config) ?(server_driver = Tcp.Conn.Native) () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed in
  let net = Build.pipe ~rng engine (Spec.pipe ~loss ~bw:bandwidth ~lat:delay ()) in
  let h = { engine; net; server_conn = None; delivered = 0; server_closed = false } in
  let _listener =
    Tcp.Conn.listen net.Build.b ~port:80 ~driver:server_driver
      ~config
      ~on_accept:(fun conn ->
        h.server_conn <- Some conn;
        Tcp.Conn.on_receive conn (fun n -> h.delivered <- h.delivered + n);
        Tcp.Conn.on_closed conn (fun () -> h.server_closed <- true))
      ()
  in
  h

let dst = Addr.endpoint ~host:1 ~port:80

let test_handshake () =
  let h = make () in
  let c = Tcp.Conn.connect h.net.Build.a ~dst () in
  let established = ref false in
  Tcp.Conn.on_established c (fun () -> established := true);
  Engine.run_for h.engine (Time.ms 100);
  "client established" => !established;
  (match h.server_conn with
  | Some s -> "server established" => (Tcp.Conn.state s = Tcp.Conn.Established)
  | None -> Alcotest.fail "no server connection");
  "client in established" => (Tcp.Conn.state c = Tcp.Conn.Established)

let test_lossless_transfer () =
  let h = make () in
  let c = Tcp.Conn.connect h.net.Build.a ~dst () in
  Tcp.Conn.send c 100_000;
  Engine.run_for h.engine (Time.sec 5.);
  Alcotest.(check int) "every byte delivered exactly once" 100_000 h.delivered;
  let st = Tcp.Conn.stats c in
  Alcotest.(check int) "no retransmissions" 0 st.Tcp.Conn.retransmits;
  Alcotest.(check int) "all bytes acked" 100_000 st.Tcp.Conn.bytes_acked

let test_transfer_with_loss () =
  let h = make ~loss:0.02 ~seed:7 () in
  let c = Tcp.Conn.connect h.net.Build.a ~dst () in
  Tcp.Conn.send c 300_000;
  Engine.run_for h.engine (Time.sec 60.);
  Alcotest.(check int) "all bytes delivered despite loss" 300_000 h.delivered;
  let st = Tcp.Conn.stats c in
  "loss caused retransmissions" => (st.Tcp.Conn.retransmits > 0)

let test_cm_transfer_with_loss () =
  let engine_probe = ref None in
  ignore engine_probe;
  let h = make ~loss:0.02 ~seed:11 () in
  let cm = Cm.create h.engine ~mtu:Tcp.Conn.default_config.Tcp.Conn.mss () in
  Cm.attach cm h.net.Build.a;
  let c = Tcp.Conn.connect h.net.Build.a ~dst ~driver:(Tcp.Conn.Cm_driven cm) () in
  Tcp.Conn.send c 300_000;
  Engine.run_for h.engine (Time.sec 60.);
  Alcotest.(check int) "TCP/CM delivers everything" 300_000 h.delivered;
  "used the CM (grants issued)" => ((Cm.counters cm).Cm.grants > 100)

let test_fast_retransmit () =
  (* lossy enough to trigger triple-dupack recovery on a long transfer *)
  let h = make ~loss:0.01 ~seed:3 () in
  let c = Tcp.Conn.connect h.net.Build.a ~dst () in
  Tcp.Conn.send c 500_000;
  Engine.run_for h.engine (Time.sec 60.);
  let st = Tcp.Conn.stats c in
  Alcotest.(check int) "delivered" 500_000 h.delivered;
  "fast retransmit was used" => (st.Tcp.Conn.fast_retransmits > 0)

let test_rto_on_blackout () =
  let h = make () in
  let c = Tcp.Conn.connect h.net.Build.a ~dst () in
  Engine.run_for h.engine (Time.ms 100);
  (* black out the forward path mid-transfer *)
  Tcp.Conn.send c 50_000;
  Engine.run_for h.engine (Time.ms 1);
  (* drop everything for a second *)
  let rng = Rng.create ~seed:5 in
  let lossy =
    Link.create h.engine ~bandwidth_bps:1e7 ~delay:(Time.ms 10) ~loss_rate:1.0 ~rng
      ~sink:(fun pkt -> Host.deliver h.net.Build.b pkt)
      ()
  in
  Host.attach_route h.net.Build.a (Link.send lossy);
  Engine.run_for h.engine (Time.sec 2.);
  (* restore *)
  Host.attach_route h.net.Build.a (Link.send h.net.Build.ab);
  Engine.run_for h.engine (Time.sec 30.);
  let st = Tcp.Conn.stats c in
  "timeout occurred" => (st.Tcp.Conn.timeouts > 0);
  Alcotest.(check int) "recovered after blackout" 50_000 h.delivered

let test_fin_teardown () =
  let h = make () in
  let c = Tcp.Conn.connect h.net.Build.a ~dst () in
  let client_closed = ref false in
  Tcp.Conn.on_closed c (fun () -> client_closed := true);
  Tcp.Conn.send c 10_000;
  Engine.run_for h.engine (Time.ms 500);
  Tcp.Conn.close c;
  Engine.run_for h.engine (Time.ms 500);
  (* server sees FIN, closes its side *)
  (match h.server_conn with
  | Some s ->
      "server in close-wait" => (Tcp.Conn.state s = Tcp.Conn.Close_wait);
      Tcp.Conn.close s
  | None -> Alcotest.fail "no server conn");
  Engine.run_for h.engine (Time.sec 5.);
  "client closed (after time-wait)" => !client_closed;
  "server closed" => h.server_closed;
  Alcotest.(check int) "all data arrived before FIN" 10_000 h.delivered

let test_delayed_acks_halve_acks () =
  let run delayed =
    let config = { Tcp.Conn.default_config with Tcp.Conn.delayed_acks = delayed } in
    let h = make ~config () in
    let c = Tcp.Conn.connect h.net.Build.a ~dst ~config () in
    Tcp.Conn.send c 200_000;
    Engine.run_for h.engine (Time.sec 10.);
    Alcotest.(check int) "delivered" 200_000 h.delivered;
    match h.server_conn with
    | Some s -> (Tcp.Conn.stats s).Tcp.Conn.acks_out
    | None -> Alcotest.fail "no server"
  in
  let with_delack = run true and without = run false in
  "delayed acks send fewer acks"
  => (float_of_int with_delack < 0.7 *. float_of_int without)

let test_srtt_close_to_path_rtt () =
  let h = make ~delay:(Time.ms 30) () in
  let c = Tcp.Conn.connect h.net.Build.a ~dst () in
  Tcp.Conn.send c 200_000;
  Engine.run_for h.engine (Time.sec 10.);
  match Tcp.Conn.srtt c with
  | Some srtt ->
      (* path RTT is 60 ms + serialization/queueing *)
      "srtt in [60ms, 200ms)" => (srtt >= Time.ms 60 && srtt < Time.ms 200)
  | None -> Alcotest.fail "no rtt samples"

let test_karn_mode_works () =
  let config = { Tcp.Conn.default_config with Tcp.Conn.timestamps = false } in
  let h = make ~loss:0.01 ~seed:9 ~config () in
  let c = Tcp.Conn.connect h.net.Build.a ~dst ~config () in
  Tcp.Conn.send c 200_000;
  Engine.run_for h.engine (Time.sec 60.);
  Alcotest.(check int) "delivered without timestamps" 200_000 h.delivered;
  "rtt estimated via Karn" => ((Tcp.Conn.stats c).Tcp.Conn.rtt_samples > 0)

let test_native_throughput_saturates_link () =
  (* 10 Mbps, 20 ms RTT: TCP should achieve near link rate.  (Slow start
     legitimately overflows the drop-tail queue once, so a few
     retransmissions are expected.) *)
  let h = make ~bandwidth:1e7 ~delay:(Time.ms 10) () in
  let c = Tcp.Conn.connect h.net.Build.a ~dst () in
  Tcp.Conn.send c 2_000_000;
  Engine.run_for h.engine (Time.sec 4.);
  Alcotest.(check int) "delivered within ~1.3x ideal time" 2_000_000 h.delivered;
  let st = Tcp.Conn.stats c in
  let total = st.Tcp.Conn.segments_out in
  "retransmissions below 5%" => (st.Tcp.Conn.retransmits * 20 < total)

let test_two_flows_share_fairly () =
  let h = make ~bandwidth:1e7 ~delay:(Time.ms 10) () in
  (* second listener on another port *)
  let delivered2 = ref 0 in
  let _l2 =
    Tcp.Conn.listen h.net.Build.b ~port:81
      ~on_accept:(fun conn -> Tcp.Conn.on_receive conn (fun n -> delivered2 := !delivered2 + n))
      ()
  in
  let c1 = Tcp.Conn.connect h.net.Build.a ~dst () in
  let c2 = Tcp.Conn.connect h.net.Build.a ~dst:(Addr.endpoint ~host:1 ~port:81) () in
  Tcp.Conn.send c1 10_000_000;
  Tcp.Conn.send c2 10_000_000;
  Engine.run_for h.engine (Time.sec 10.);
  let d1 = h.delivered and d2 = !delivered2 in
  let ratio = float_of_int (Stdlib.max d1 d2) /. float_of_int (Stdlib.max 1 (Stdlib.min d1 d2)) in
  "both flows progressed" => (d1 > 500_000 && d2 > 500_000);
  "rough fairness (ratio < 2.5)" => (ratio < 2.5)

let test_cm_flows_share_macroflow () =
  let h = make () in
  let cm = Cm.create h.engine ~mtu:1448 () in
  Cm.attach cm h.net.Build.a;
  let delivered2 = ref 0 in
  let _l2 =
    Tcp.Conn.listen h.net.Build.b ~port:81
      ~on_accept:(fun conn -> Tcp.Conn.on_receive conn (fun n -> delivered2 := !delivered2 + n))
      ()
  in
  let c1 = Tcp.Conn.connect h.net.Build.a ~dst ~driver:(Tcp.Conn.Cm_driven cm) () in
  let c2 =
    Tcp.Conn.connect h.net.Build.a
      ~dst:(Addr.endpoint ~host:1 ~port:81)
      ~driver:(Tcp.Conn.Cm_driven cm) ()
  in
  (match (Tcp.Conn.cm_flow c1, Tcp.Conn.cm_flow c2) with
  | Some f1, Some f2 ->
      Alcotest.(check int) "same macroflow" (Cm.macroflow_id cm f1) (Cm.macroflow_id cm f2)
  | _ -> Alcotest.fail "cm flows not open");
  Tcp.Conn.send c1 500_000;
  Tcp.Conn.send c2 500_000;
  Engine.run_for h.engine (Time.sec 10.);
  "both progressed" => (h.delivered > 100_000 && !delivered2 > 100_000)

let test_ecn_reduces_without_drops () =
  (* RED+ECN bottleneck: ECN-enabled TCP should see marks and still deliver *)
  let engine = Engine.create () in
  let rng = Rng.create ~seed:21 in
  let a = Host.create engine ~id:0 () in
  let b = Host.create engine ~id:1 () in
  let qdisc = Queue_disc.red ~ecn:true ~min_th:5 ~max_th:15 ~limit_pkts:50 ~rng () in
  let ab =
    Link.create engine ~bandwidth_bps:2e6 ~delay:(Time.ms 10) ~qdisc
      ~sink:(fun p -> Host.deliver b p)
      ()
  in
  let ba =
    Link.create engine ~bandwidth_bps:2e6 ~delay:(Time.ms 10) ~sink:(fun p -> Host.deliver a p) ()
  in
  Host.attach_route a (Link.send ab);
  Host.attach_route b (Link.send ba);
  let config = { Tcp.Conn.default_config with Tcp.Conn.ecn = true } in
  let delivered = ref 0 in
  let _l =
    Tcp.Conn.listen b ~port:80 ~config
      ~on_accept:(fun conn -> Tcp.Conn.on_receive conn (fun n -> delivered := !delivered + n))
      ()
  in
  let c = Tcp.Conn.connect a ~dst ~config () in
  Tcp.Conn.send c 2_000_000;
  Engine.run_for engine (Time.sec 30.);
  Alcotest.(check int) "delivered under ECN" 2_000_000 !delivered;
  "ECN marks were applied" => ((Link.stats ab).Link.ecn_marks > 0)

let test_nagle_coalesces () =
  let config = { Tcp.Conn.default_config with Tcp.Conn.nagle = true } in
  let h = make ~config () in
  let c = Tcp.Conn.connect h.net.Build.a ~dst ~config () in
  Engine.run_for h.engine (Time.ms 100);
  (* many tiny writes while un-acked data exists *)
  for _ = 1 to 50 do
    Tcp.Conn.send c 10
  done;
  Engine.run_for h.engine (Time.sec 2.);
  Alcotest.(check int) "all bytes arrive" 500 h.delivered;
  let st = Tcp.Conn.stats c in
  "far fewer segments than writes" => (st.Tcp.Conn.segments_out < 25)

let test_rtt_sample_counting () =
  let h = make () in
  let c = Tcp.Conn.connect h.net.Build.a ~dst () in
  Tcp.Conn.send c 100_000;
  Engine.run_for h.engine (Time.sec 5.);
  "multiple rtt samples" => ((Tcp.Conn.stats c).Tcp.Conn.rtt_samples > 5)

let test_cm_initial_window_is_one () =
  (* the paper: CM starts at 1 MTU, Linux at 2 — check the first flight *)
  let h = make ~delay:(Time.ms 50) () in
  let cm = Cm.create h.engine ~mtu:1448 () in
  Cm.attach cm h.net.Build.a;
  let c = Tcp.Conn.connect h.net.Build.a ~dst ~driver:(Tcp.Conn.Cm_driven cm) () in
  Tcp.Conn.send c 100_000;
  (* run just past the handshake: one RTT (100 ms) + epsilon *)
  Engine.run_for h.engine (Time.ms 130);
  let st = Tcp.Conn.stats c in
  (* after handshake completes (~100ms) the CM window allows one segment *)
  "first flight limited to 1 segment"
  => (st.Tcp.Conn.bytes_sent <= 1448)



let test_transfer_with_reordering () =
  (* a path that reorders 10% of packets by 5 ms: dupacks without loss;
     TCP must neither lose nor duplicate data, and spurious fast
     retransmits must stay rare *)
  let engine = Engine.create () in
  let rng = Rng.create ~seed:23 in
  let a = Host.create engine ~id:0 () in
  let b = Host.create engine ~id:1 () in
  let ab =
    Link.create engine ~bandwidth_bps:1e7 ~delay:(Time.ms 10)
      ~sink:(fun p ->
        if Rng.bernoulli rng 0.1 then
          ignore (Engine.schedule_after engine (Time.ms 5) (fun () -> Host.deliver b p))
        else Host.deliver b p)
      ()
  in
  let ba =
    Link.create engine ~bandwidth_bps:1e7 ~delay:(Time.ms 10)
      ~sink:(fun p -> Host.deliver a p)
      ()
  in
  Host.attach_route a (Link.send ab);
  Host.attach_route b (Link.send ba);
  let delivered = ref 0 in
  let _l =
    Tcp.Conn.listen b ~port:80
      ~on_accept:(fun c -> Tcp.Conn.on_receive c (fun n -> delivered := !delivered + n))
      ()
  in
  let c = Tcp.Conn.connect a ~dst () in
  Tcp.Conn.send c 500_000;
  Engine.run_for engine (Time.sec 20.);
  Alcotest.(check int) "exactly once despite reordering" 500_000 !delivered;
  (* 5 fast retransmits, 15 of 362 segments resent and no timeout at this
     seed; a dupack threshold of 1 reads far more *)
  let st = Tcp.Conn.stats c in
  "at most 5 fast retransmits" => (st.Tcp.Conn.fast_retransmits <= 5);
  "retransmits at most 5% of segments" => (20 * st.Tcp.Conn.retransmits <= st.Tcp.Conn.segments_out);
  Alcotest.(check int) "no timeout" 0 st.Tcp.Conn.timeouts



let test_sack_beats_newreno_on_burst_loss () =
  (* drop a burst of 5 packets from one window: SACK repairs them in about
     one RTT; NewReno needs one RTT per hole (or an RTO) *)
  let run sack =
    let engine = Engine.create () in
    let config = { Tcp.Conn.default_config with Tcp.Conn.sack } in
    let a = Host.create engine ~id:0 () in
    let b = Host.create engine ~id:1 () in
    let qdisc = Queue_disc.drop_listed ~drops:[ 60; 61; 62; 63; 64 ] ~limit_pkts:200 () in
    let ab =
      Link.create engine ~bandwidth_bps:1e7 ~delay:(Time.ms 25) ~qdisc
        ~sink:(fun p -> Host.deliver b p)
        ()
    in
    let ba =
      Link.create engine ~bandwidth_bps:1e7 ~delay:(Time.ms 25)
        ~sink:(fun p -> Host.deliver a p)
        ()
    in
    Host.attach_route a (Link.send ab);
    Host.attach_route b (Link.send ba);
    let delivered = ref 0 in
    let done_at = ref None in
    let total = 300_000 in
    let _l =
      Tcp.Conn.listen b ~port:80 ~config
        ~on_accept:(fun c ->
          Tcp.Conn.on_receive c (fun n ->
              delivered := !delivered + n;
              if !delivered >= total && !done_at = None then
                done_at := Some (Engine.now engine)))
        ()
    in
    let c = Tcp.Conn.connect a ~dst ~config () in
    Tcp.Conn.send c total;
    Engine.run_for engine (Time.sec 30.);
    let st = Tcp.Conn.stats c in
    ( (match !done_at with Some t -> Time.to_float_ms t | None -> infinity),
      st.Tcp.Conn.timeouts,
      !delivered )
  in
  let sack_ms, sack_rto, sack_del = run true in
  let nr_ms, _nr_rto, nr_del = run false in
  Alcotest.(check int) "sack delivered all" 300_000 sack_del;
  Alcotest.(check int) "newreno delivered all" 300_000 nr_del;
  Alcotest.(check int) "sack avoided timeouts" 0 sack_rto;
  "sack completes sooner" => (sack_ms < nr_ms)

let test_sack_blocks_advertised () =
  (* receiver advertises its out-of-order ranges *)
  let h = make () in
  let c = Tcp.Conn.connect h.net.Build.a ~dst () in
  Engine.run_for h.engine (Time.ms 100);
  (* watch acks leaving the server for SACK blocks *)
  let saw_sack = ref false in
  Host.add_tx_hook h.net.Build.b (fun pkt ->
      match pkt.Packet.payload with
      | Tcp.Segment.Tcp_seg seg -> if seg.Tcp.Segment.sacks <> [] then saw_sack := true
      | _ -> ());
  (* inject one out-of-order segment well beyond rcv_nxt *)
  let flow =
    Addr.flow ~src:(Tcp.Conn.local c) ~dst:(Tcp.Conn.remote c) ~proto:Addr.Tcp ()
  in
  let seg =
    Tcp.Segment.make ~seq:50_001 ~len:1000 ~syn:false ~fin:false ~ack:true ~ack_seq:1
      ~wnd:(1 lsl 20) ~ts_val:(Engine.now h.engine) ~ts_ecr:0 ~ece:false ~sacks:[]
  in
  Host.deliver h.net.Build.b
    (Packet.make ~now:(Engine.now h.engine) ~flow ~payload_bytes:1000
       (Tcp.Segment.Tcp_seg seg));
  Engine.run_for h.engine (Time.ms 50);
  "dupack carried a SACK block" => !saw_sack

(* ---- segment header ---------------------------------------------------- *)

(* The four flags share one int: all 16 combinations must read back as
   built, with every other field untouched and SYN/FIN each counted as
   one sequence number. *)
let test_segment_flags_round_trip () =
  for bits = 0 to 15 do
    let syn = bits land 1 <> 0 and fin = bits land 2 <> 0 in
    let ack = bits land 4 <> 0 and ece = bits land 8 <> 0 in
    let s =
      Tcp.Segment.make ~seq:1000 ~len:1448 ~syn ~fin ~ack ~ack_seq:77 ~wnd:4096 ~ts_val:5
        ~ts_ecr:3 ~ece ~sacks:[ (10, 20) ]
    in
    let case name = Printf.sprintf "flags %d: %s" bits name in
    Alcotest.(check bool) (case "syn") syn (Tcp.Segment.syn s);
    Alcotest.(check bool) (case "fin") fin (Tcp.Segment.fin s);
    Alcotest.(check bool) (case "ack") ack (Tcp.Segment.ack s);
    Alcotest.(check bool) (case "ece") ece (Tcp.Segment.ece s);
    Alcotest.(check (list int))
      (case "other fields")
      [ 1000; 1448; 77; 4096; 5; 3 ]
      Tcp.Segment.[ s.seq; s.len; s.ack_seq; s.wnd; s.ts_val; s.ts_ecr ];
    Alcotest.(check (list (pair int int))) (case "sacks") [ (10, 20) ] s.Tcp.Segment.sacks;
    Alcotest.(check int)
      (case "seg_end")
      (1000 + 1448 + Bool.to_int syn + Bool.to_int fin)
      (Tcp.Segment.seg_end s)
  done

(* Golden renderings: trace text, and every recorded trace with it,
   must not drift with the segment's layout. *)
let test_segment_pp_golden () =
  let seg ?(seq = 0) ?(len = 0) ?(syn = false) ?(fin = false) ?(ack = false) ?(ack_seq = 0)
      ?(ece = false) ?(sacks = []) ~wnd () =
    Format.asprintf "%a" Tcp.Segment.pp
      (Tcp.Segment.make ~seq ~len ~syn ~fin ~ack ~ack_seq ~wnd ~ts_val:7 ~ts_ecr:3 ~ece ~sacks)
  in
  Alcotest.(check string) "SYN" "seq=1000 len=0 SYN wnd=65535" (seg ~seq:1000 ~syn:true ~wnd:65535 ());
  Alcotest.(check string) "SYN-ACK" "seq=5000 len=0 SYN ack=1001 wnd=32768"
    (seg ~seq:5000 ~syn:true ~ack:true ~ack_seq:1001 ~wnd:32768 ());
  Alcotest.(check string) "FIN-ACK" "seq=9000 len=0 FIN ack=5001 wnd=46336"
    (seg ~seq:9000 ~fin:true ~ack:true ~ack_seq:5001 ~wnd:46336 ());
  Alcotest.(check string) "data+ECE" "seq=4344 len=1448 ack=1 ECE wnd=46336"
    (seg ~seq:4344 ~len:1448 ~ack:true ~ack_seq:1 ~ece:true ~wnd:46336 ());
  Alcotest.(check string) "SACK" "seq=1 len=0 ack=2897 wnd=46336 sack=4345-5793,7241-8689"
    (seg ~seq:1 ~ack:true ~ack_seq:2897 ~wnd:46336 ~sacks:[ (4345, 5793); (7241, 8689) ] ())

(* ---- flow control ---------------------------------------------------- *)

let test_slow_consumer_throttles_sender () =
  (* a 20 KB/s reader behind a 10 Mbit/s pipe: the advertised window, not
     congestion, must pace the transfer *)
  let config = { Tcp.Conn.default_config with Tcp.Conn.rwnd = 32_000 } in
  let h = make ~config () in
  let c = Tcp.Conn.connect h.net.Build.a ~dst ~config () in
  Engine.run_for h.engine (Time.ms 200);
  (match h.server_conn with
  | Some s -> Tcp.Conn.set_consume_rate s (Some 20_000.)
  | None -> Alcotest.fail "no server conn");
  Tcp.Conn.send c 300_000;
  Engine.run_for h.engine (Time.sec 5.);
  (* ~32KB buffer + 5s * 20KB/s = ~130KB ceiling; far below what the
     congestion window would allow *)
  "delivery paced by the reader" => (h.delivered > 60_000 && h.delivered < 160_000);
  Engine.run_for h.engine (Time.sec 20.);
  Alcotest.(check int) "everything eventually delivered" 300_000 h.delivered

let test_zero_window_and_persist () =
  let config = { Tcp.Conn.default_config with Tcp.Conn.rwnd = 20_000 } in
  let h = make ~config () in
  let c = Tcp.Conn.connect h.net.Build.a ~dst ~config () in
  Engine.run_for h.engine (Time.ms 200);
  let server = match h.server_conn with Some s -> s | None -> Alcotest.fail "no server" in
  (* a reader that consumes nothing: the window must slam shut *)
  Tcp.Conn.set_consume_rate server (Some 0.);
  Tcp.Conn.send c 100_000;
  Engine.run_for h.engine (Time.sec 10.);
  "receive buffer filled to the window" => (Tcp.Conn.receive_buffered server >= 19_000);
  "sender stalled" => (Tcp.Conn.bytes_unacked c <= Tcp.Conn.default_config.Tcp.Conn.mss);
  Alcotest.(check int) "nothing delivered to the app" 0 h.delivered;
  (* open the tap: persist probes / window updates must resume transfer *)
  Tcp.Conn.set_consume_rate server (Some 1e6);
  Engine.run_for h.engine (Time.sec 20.);
  Alcotest.(check int) "transfer completed after reopening" 100_000 h.delivered

(* A reader that takes nothing for 30 s behind a window of exactly ten
   segments: the window closes with nothing in flight.  The sender must
   sit it out probing, with no timeout, no retransmission and no window
   cut, and CM-driven TCP must report no loss to the CM (a persistent
   report would collapse the shared macroflow for every flow to the
   host).  Opening the tap then completes the transfer. *)
let closed_window_run ~cm ~rwnd =
  let engine = Engine.create () in
  let net = Build.pipe ~rng:(Rng.create ~seed:5) engine (Spec.pipe ~bw:1e7 ~lat:(Time.ms 10) ()) in
  let tel = Telemetry.create engine () in
  Telemetry.stop tel;
  let driver =
    if cm then begin
      let c = Cm.create engine ~mtu:1448 () in
      Cm.attach c net.Build.a;
      Cm.attach_telemetry c tel;
      Tcp.Conn.Cm_driven c
    end
    else Tcp.Conn.Native
  in
  let config = { Tcp.Conn.default_config with Tcp.Conn.rwnd } in
  let server = ref None and delivered = ref 0 and probes = ref 0 in
  Host.add_tx_hook net.Build.a (fun pkt ->
      match pkt.Packet.payload with
      | Tcp.Segment.Tcp_seg seg when seg.Tcp.Segment.len = 1 -> incr probes
      | _ -> ());
  let _listener =
    Tcp.Conn.listen net.Build.b ~port:80 ~config
      ~on_accept:(fun s ->
        server := Some s;
        Tcp.Conn.on_receive s (fun n -> delivered := !delivered + n))
      ()
  in
  let c = Tcp.Conn.connect net.Build.a ~dst ~driver ~config () in
  Engine.run_for engine (Time.ms 200);
  let s = match !server with Some s -> s | None -> Alcotest.fail "no server connection" in
  Tcp.Conn.set_consume_rate s (Some 0.);
  Tcp.Conn.send c 100_000;
  Engine.run_for engine (Time.sec 1.);
  let cwnd_closed = Tcp.Conn.cwnd c in
  Engine.run_for engine (Time.sec 29.);
  let name = Printf.sprintf "%s, rwnd %d" (if cm then "cm-driven" else "native") rwnd in
  let st = Tcp.Conn.stats c in
  Alcotest.(check int) (name ^ ": window full") rwnd (Tcp.Conn.receive_buffered s);
  Alcotest.(check int) (name ^ ": timeouts") 0 st.Tcp.Conn.timeouts;
  Alcotest.(check int) (name ^ ": retransmits") 0 st.Tcp.Conn.retransmits;
  Alcotest.(check int) (name ^ ": fast retransmits") 0 st.Tcp.Conn.fast_retransmits;
  Alcotest.(check int) (name ^ ": cwnd kept") cwnd_closed (Tcp.Conn.cwnd c);
  (name ^ ": the persist timer kept probing") => (!probes >= 5);
  let congestion =
    List.filter
      (fun (ev : Telemetry.Trace.event) -> ev.name = "cm.congestion")
      (Telemetry.Trace.events (Telemetry.trace tel))
  in
  Alcotest.(check int) (name ^ ": loss reports to the CM") 0 (List.length congestion);
  Tcp.Conn.set_consume_rate s (Some 1e6);
  Engine.run_for engine (Time.sec 10.);
  Alcotest.(check int) (name ^ ": transfer completed after reopening") 100_000 !delivered

(* 20,000 B is not a multiple of the MSS: the last segment before the
   window closes must be clipped to the bytes the window has left *)
let test_closed_window_no_timeout () =
  List.iter
    (fun rwnd ->
      closed_window_run ~cm:false ~rwnd;
      closed_window_run ~cm:true ~rwnd)
    [ 10 * 1448; 20_000 ]

let test_consume_rate_none_flushes () =
  let config = { Tcp.Conn.default_config with Tcp.Conn.rwnd = 50_000 } in
  let h = make ~config () in
  let c = Tcp.Conn.connect h.net.Build.a ~dst ~config () in
  Engine.run_for h.engine (Time.ms 200);
  let server = match h.server_conn with Some s -> s | None -> Alcotest.fail "no server" in
  Tcp.Conn.set_consume_rate server (Some 0.);
  Tcp.Conn.send c 30_000;
  Engine.run_for h.engine (Time.sec 3.);
  "data parked in the buffer" => (Tcp.Conn.receive_buffered server > 0);
  Tcp.Conn.set_consume_rate server None;
  Alcotest.(check int) "switching to infinite consumer flushes" 0
    (Tcp.Conn.receive_buffered server);
  Engine.run_for h.engine (Time.sec 5.);
  Alcotest.(check int) "whole transfer done" 30_000 h.delivered

(* ------------------------------------------------------------------ *)
(* Property tests *)

(* Exactly-once in-order delivery under arbitrary random loss. *)
let prop_delivery_exact_under_loss =
  QCheck.Test.make ~name:"tcp delivers exactly once under random loss" ~count:25
    QCheck.(pair (int_range 1 1000) (int_range 10_000 300_000))
    (fun (seed, bytes) ->
      let h = make ~loss:0.02 ~seed () in
      let c = Tcp.Conn.connect h.net.Build.a ~dst () in
      Tcp.Conn.send c bytes;
      Engine.run_for h.engine (Time.sec 120.);
      h.delivered = bytes)

(* Same, for the CM driver. *)
let prop_cm_delivery_exact_under_loss =
  QCheck.Test.make ~name:"tcp/cm delivers exactly once under random loss" ~count:15
    QCheck.(pair (int_range 1 1000) (int_range 10_000 200_000))
    (fun (seed, bytes) ->
      let h = make ~loss:0.02 ~seed () in
      let cm = Cm.create h.engine () in
      Cm.attach cm h.net.Build.a;
      let c = Tcp.Conn.connect h.net.Build.a ~dst ~driver:(Tcp.Conn.Cm_driven cm) () in
      Tcp.Conn.send c bytes;
      Engine.run_for h.engine (Time.sec 120.);
      h.delivered = bytes)

(* Receiver reassembly: inject data segments for [1, N] in a random
   permutation of random-sized chunks (with one duplicate), directly into
   the receiving connection; every byte must be delivered once, in order. *)
let prop_reassembly_any_order =
  QCheck.Test.make ~name:"receiver reassembles any segment arrival order" ~count:50
    QCheck.(pair (int_range 1 1000) (int_range 2 30))
    (fun (seed, nchunks) ->
      let rng = Rng.create ~seed in
      let engine = Engine.create () in
      let net = Build.pipe engine (Spec.pipe ~bw:1e8 ~lat:(Time.us 100) ()) in
      let delivered = ref 0 in
      let server_conn = ref None in
      let _l =
        Tcp.Conn.listen net.Build.b ~port:80
          ~on_accept:(fun conn ->
            server_conn := Some conn;
            Tcp.Conn.on_receive conn (fun n -> delivered := !delivered + n))
          ()
      in
      let client = Tcp.Conn.connect net.Build.a ~dst () in
      Engine.run_for engine (Time.ms 50);
      ignore client;
      (* build random chunk boundaries over [1, total+1) *)
      let sizes = Array.init nchunks (fun _ -> 1 + Rng.int rng 1400) in
      let total = Array.fold_left ( + ) 0 sizes in
      let chunks = ref [] in
      let seq = ref 1 in
      Array.iter
        (fun len ->
          chunks := (!seq, len) :: !chunks;
          seq := !seq + len)
        sizes;
      let chunks = Array.of_list !chunks in
      Rng.shuffle rng chunks;
      (* duplicate one chunk to exercise the stale-duplicate path *)
      let dup = chunks.(Rng.int rng (Array.length chunks)) in
      let inject (seq, len) =
        let flow =
          Addr.flow
            ~src:(Tcp.Conn.local client)
            ~dst:(Tcp.Conn.remote client)
            ~proto:Addr.Tcp ()
        in
        let seg =
          Tcp.Segment.make ~seq ~len ~syn:false ~fin:false ~ack:true ~ack_seq:1
            ~wnd:(1 lsl 20) ~ts_val:(Engine.now engine) ~ts_ecr:0 ~ece:false ~sacks:[]
        in
        let pkt =
          Packet.make ~now:(Engine.now engine) ~flow ~payload_bytes:len
            (Tcp.Segment.Tcp_seg seg)
        in
        Host.deliver net.Build.b pkt
      in
      Array.iter inject chunks;
      inject dup;
      Engine.run_for engine (Time.ms 10);
      !delivered = total)

(* ---- host CPU and allocation ------------------------------------------ *)

(* Allocation budget of the packet path, on a CM-driven bulk transfer
   over the Fig. 6 pipe (100 Mbps, Pentium-III costs on both hosts,
   1448-byte segments, 32-segment window).  Per delivered segment
   (43.0 minor words measured): the data packet's [Packet] (7 words
   with the header), [Tcp_seg] box (3) and [Segment] (9), the CM grant
   (7), and half an ack's packet, box and segment (9.5, one ack per two
   segments) come to 35.5; the rest of the path allocates ~7.5.
   Unpacked segment flags and ECN bits and a scheduler dequeue option
   read 51.0.  A closure, handle, option or boxed float per packet
   anywhere on the path pushes this well past the budget (a build with
   them read ~123). *)
let test_packet_path_alloc_budget () =
  let mss = 1448 and segments = 20_000 in
  let engine = Engine.create () in
  let net =
    Build.pipe ~costs:Costs.pentium3 ~rng:(Rng.create ~seed:42) engine
      (Spec.pipe ~queue:500 ~bw:100e6 ~lat:(Time.us 50) ())
  in
  let config = { Tcp.Conn.default_config with Tcp.Conn.mss; rwnd = 32 * mss } in
  let cm = Cm.create engine ~mtu:mss () in
  Cm.attach cm net.Build.a;
  let delivered = ref 0 in
  let _listener =
    Tcp.Conn.listen net.Build.b ~port:80 ~config
      ~on_accept:(fun conn -> Tcp.Conn.on_receive conn (fun n -> delivered := !delivered + n))
      ()
  in
  let c = Tcp.Conn.connect net.Build.a ~dst ~driver:(Tcp.Conn.Cm_driven cm) ~config () in
  Tcp.Conn.send c (segments * mss);
  (* warm-up: handshake, slow start, ring and event-pool growth *)
  Engine.run_for engine (Time.ms 100);
  let d0 = !delivered in
  let w0 = Gc.minor_words () in
  let guard = ref 0 in
  while !delivered < segments * mss && !guard < 200 do
    incr guard;
    Engine.run_for engine (Time.ms 50)
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "transfer completes" (segments * mss) !delivered;
  let measured = (!delivered - d0) / mss in
  "most segments measured" => (measured > segments / 2);
  let per_segment = words /. float_of_int measured in
  if per_segment > 47. then
    Alcotest.failf "%.1f minor words per delivered segment (budget 47)" per_segment

(* Two connections share one costed host's CPU in each direction: every
   segment waits in its connection's ring for a CPU work item, and the
   items of both connections interleave on the one CPU.  On a lossless
   path every data segment must still leave IP in sequence order and
   every ack in order, with everything delivered and no retransmission. *)
let test_shared_costed_host_keeps_order () =
  let engine = Engine.create () in
  let net =
    Build.pipe ~costs:Costs.pentium3 engine (Spec.pipe ~queue:1000 ~bw:1e7 ~lat:(Time.ms 2) ())
  in
  let last_seq = Hashtbl.create 4 and out_of_order = ref 0 in
  let watch host =
    Host.add_tx_hook host (fun pkt ->
        match pkt.Packet.payload with
        | Tcp.Segment.Tcp_seg seg ->
            (* data segments by seq, pure acks by ack_seq *)
            let data = seg.Tcp.Segment.len > 0 in
            let key = (pkt.Packet.flow, data) in
            let v = if data then seg.Tcp.Segment.seq else seg.Tcp.Segment.ack_seq in
            (match Hashtbl.find_opt last_seq key with
            | Some prev when v < prev -> incr out_of_order
            | _ -> ());
            Hashtbl.replace last_seq key v
        | _ -> ())
  in
  watch net.Build.a;
  watch net.Build.b;
  let delivered = Array.make 2 0 in
  let accepted = ref 0 in
  (* a 32-segment window keeps the queue, and so the RTT, below the
     minimum RTO, and immediate acks keep a delayed last ack from
     outwaiting it: no spurious timeout *)
  let config =
    { Tcp.Conn.default_config with Tcp.Conn.rwnd = 32 * 1448; delayed_acks = false }
  in
  let _listener =
    Tcp.Conn.listen net.Build.b ~port:80 ~config
      ~on_accept:(fun conn ->
        let i = !accepted in
        incr accepted;
        Tcp.Conn.on_receive conn (fun n -> delivered.(i) <- delivered.(i) + n))
      ()
  in
  let total = 400_000 in
  let conns = List.init 2 (fun _ -> Tcp.Conn.connect net.Build.a ~dst ~config ()) in
  List.iter (fun c -> Tcp.Conn.send c total) conns;
  Engine.run_for engine (Time.sec 10.);
  Alcotest.(check (array int)) "both deliver everything" [| total; total |] delivered;
  Alcotest.(check int) "segments and acks leave in sequence order" 0 !out_of_order;
  List.iter
    (fun c -> Alcotest.(check int) "no retransmission" 0 (Tcp.Conn.stats c).Tcp.Conn.retransmits)
    conns

(* ---- endpoint size and lazily built state ---------------------------- *)

(* Minor words one [connect] allocates, averaged over 1000 connections
   from one host (exact: [Gc.minor_words] counts every allocation): the
   endpoint record, its 5-tuples, RTO estimator, controller state, the
   retransmit and delayed-ack timers, its demux entry and the SYN.  The
   rare timers (persist, consume, TIME_WAIT) and the host-CPU queues are
   built on first use, so a connection that never needs them never pays
   for them: 164.0 words native and 226.1 CM-driven, where building them
   eagerly read 264.0 and 326.1. *)
let connect_words ~cm =
  let n = 1000 in
  let engine = Engine.create () in
  let net =
    Build.pipe ~rng:(Rng.create ~seed:1) engine
      (Spec.pipe ~queue:10_000 ~rev_queue:10_000 ~bw:1e10 ~lat:(Time.ms 10) ())
  in
  let driver =
    if cm then begin
      let c = Cm.create engine ~mtu:1448 () in
      Cm.attach c net.Build.a;
      Tcp.Conn.Cm_driven c
    end
    else Tcp.Conn.Native
  in
  let _listener = Tcp.Conn.listen net.Build.b ~port:80 ~on_accept:ignore () in
  (* the first connection opens the CM's macroflow for the destination *)
  let first = Tcp.Conn.connect net.Build.a ~dst ~driver () in
  let conns = Array.make n first in
  let w0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    conns.(i) <- Tcp.Conn.connect net.Build.a ~dst ~driver ()
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int n in
  Engine.run_for engine (Time.sec 1.);
  Array.iter
    (fun c -> "connection established" => (Tcp.Conn.state c = Tcp.Conn.Established))
    conns;
  words

let test_connect_words_native () =
  let words = connect_words ~cm:false in
  if words > 175. then Alcotest.failf "native connect allocates %.1f words (ceiling 175)" words

let test_connect_words_cm () =
  let words = connect_words ~cm:true in
  if words > 235. then Alcotest.failf "CM-driven connect allocates %.1f words (ceiling 235)" words

(* One connection through every lazily built timer: a zero window (the
   persist timer), a finite consumer (the consume timer) and an active
   close (TIME_WAIT).  The segment log, the probe times and the close
   times are pinned: the close times are those eagerly built timers
   gave, and the probes back off from 400 ms, doubling, with no
   retransmission timeout between them.  While the finite consumer
   reopens the window a little at a time, each new segment is clipped
   to what the window has left (a 2000 B window takes 1448 + 552 B). *)
let lazy_timer_run ~cm =
  let engine = Engine.create () in
  let net =
    Build.pipe ~rng:(Rng.create ~seed:3) engine (Spec.pipe ~bw:1e7 ~lat:(Time.ms 10) ())
  in
  let log = Buffer.create 4096 and segs = ref 0 and probes = ref [] in
  let watch host =
    Host.add_tx_hook host (fun pkt ->
        match pkt.Packet.payload with
        | Tcp.Segment.Tcp_seg seg ->
            incr segs;
            let now = Engine.now engine in
            if Host.id host = 0 && seg.Tcp.Segment.len = 1 then probes := now :: !probes;
            Buffer.add_string log
              (Format.asprintf "%d %d %a\n" now (Host.id host) Tcp.Segment.pp seg)
        | _ -> ())
  in
  watch net.Build.a;
  watch net.Build.b;
  let driver =
    if cm then begin
      let c = Cm.create engine ~mtu:1448 () in
      Cm.attach c net.Build.a;
      Tcp.Conn.Cm_driven c
    end
    else Tcp.Conn.Native
  in
  (* a window of exactly ten segments closes to zero with nothing in flight *)
  let config = { Tcp.Conn.default_config with Tcp.Conn.rwnd = 10 * 1448 } in
  let server = ref None and delivered = ref 0 and closed = ref [] in
  let _listener =
    Tcp.Conn.listen net.Build.b ~port:80 ~config
      ~on_accept:(fun s ->
        server := Some s;
        Tcp.Conn.on_receive s (fun n -> delivered := !delivered + n);
        Tcp.Conn.on_closed s (fun () -> closed := ("server", Engine.now engine) :: !closed))
      ()
  in
  let c = Tcp.Conn.connect net.Build.a ~dst ~driver ~config () in
  Tcp.Conn.on_closed c (fun () -> closed := ("client", Engine.now engine) :: !closed);
  Engine.run_for engine (Time.ms 200);
  let s = match !server with Some s -> s | None -> Alcotest.fail "no server connection" in
  Tcp.Conn.set_consume_rate s (Some 0.);
  Tcp.Conn.send c 60_000;
  Tcp.Conn.close c;
  Engine.run_for engine (Time.sec 8.);
  Tcp.Conn.set_consume_rate s (Some 50_000.);
  Engine.run_for engine (Time.sec 4.);
  Tcp.Conn.close s;
  Engine.run_for engine (Time.sec 5.);
  Alcotest.(check int) "everything delivered" 60_000 !delivered;
  "both ends closed" => (Tcp.Conn.state c = Tcp.Conn.Closed && Tcp.Conn.state s = Tcp.Conn.Closed);
  (!segs, Digest.to_hex (Digest.string (Buffer.contents log)), List.rev !probes, List.rev !closed)

let test_lazy_timers_pinned () =
  let check name ~cm ~segs ~digest ~probes =
    let segs', digest', probes', closed = lazy_timer_run ~cm in
    Alcotest.(check int) (name ^ ": segments") segs segs';
    Alcotest.(check string) (name ^ ": segment log") digest digest';
    Alcotest.(check (list int)) (name ^ ": persist probe times") probes probes';
    (* the server closes at 12.22 s; the client leaves TIME_WAIT 2 MSL
       after its FIN exchange completes *)
    Alcotest.(check (list (pair string int)))
      (name ^ ": close times")
      [ ("server", 12_220_092_800); ("client", 14_210_046_400) ]
      closed
  in
  check "native" ~cm:false ~segs:110 ~digest:"1891548c6e8defe2c6d86edab32df800"
    ~probes:[ 467_368_000; 867_368_000; 1_667_368_000; 3_267_368_000; 6_467_368_000 ];
  check "cm-driven" ~cm:true ~segs:110 ~digest:"f29649447d25b741d36bb90fd51191f3"
    ~probes:[ 487_414_400; 887_414_400; 1_687_414_400; 3_287_414_400; 6_487_414_400 ]

let () =
  Alcotest.run "tcp"
    [
      ( "basic",
        [
          Alcotest.test_case "three-way handshake" `Quick test_handshake;
          Alcotest.test_case "lossless transfer" `Quick test_lossless_transfer;
          Alcotest.test_case "fin teardown" `Quick test_fin_teardown;
          Alcotest.test_case "srtt tracks path rtt" `Quick test_srtt_close_to_path_rtt;
          Alcotest.test_case "rtt samples counted" `Quick test_rtt_sample_counting;
          Alcotest.test_case "nagle coalesces tiny writes" `Quick test_nagle_coalesces;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "recovers from random loss" `Quick test_transfer_with_loss;
          Alcotest.test_case "fast retransmit" `Quick test_fast_retransmit;
          Alcotest.test_case "rto after blackout" `Quick test_rto_on_blackout;
          Alcotest.test_case "karn mode (no timestamps)" `Quick test_karn_mode_works;
          Alcotest.test_case "reordering tolerated" `Quick test_transfer_with_reordering;
          Alcotest.test_case "sack beats newreno on burst loss" `Quick
            test_sack_beats_newreno_on_burst_loss;
          Alcotest.test_case "sack blocks advertised" `Quick test_sack_blocks_advertised;
        ] );
      ( "behavior",
        [
          Alcotest.test_case "delayed acks" `Quick test_delayed_acks_halve_acks;
          Alcotest.test_case "saturates clean link" `Quick test_native_throughput_saturates_link;
          Alcotest.test_case "two native flows fair" `Quick test_two_flows_share_fairly;
          Alcotest.test_case "ecn marks, no drops" `Quick test_ecn_reduces_without_drops;
        ] );
      ( "segment",
        [
          Alcotest.test_case "flags round trip (16 combinations)" `Quick
            test_segment_flags_round_trip;
          Alcotest.test_case "pp golden strings" `Quick test_segment_pp_golden;
        ] );
      ( "flow-control",
        [
          Alcotest.test_case "slow consumer throttles" `Quick test_slow_consumer_throttles_sender;
          Alcotest.test_case "zero window + persist" `Quick test_zero_window_and_persist;
          Alcotest.test_case "infinite consumer flushes" `Quick test_consume_rate_none_flushes;
          Alcotest.test_case "closed window: no timeout, no loss report" `Quick
            test_closed_window_no_timeout;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_delivery_exact_under_loss;
          QCheck_alcotest.to_alcotest prop_cm_delivery_exact_under_loss;
          QCheck_alcotest.to_alcotest prop_reassembly_any_order;
        ] );
      ( "tcp/cm",
        [
          Alcotest.test_case "cm transfer with loss" `Quick test_cm_transfer_with_loss;
          Alcotest.test_case "cm flows share macroflow" `Quick test_cm_flows_share_macroflow;
          Alcotest.test_case "cm initial window = 1" `Quick test_cm_initial_window_is_one;
        ] );
      ( "packet-path",
        [
          Alcotest.test_case "alloc budget (47 words/segment)" `Quick
            test_packet_path_alloc_budget;
          Alcotest.test_case "shared costed host keeps order" `Quick
            test_shared_costed_host_keeps_order;
        ] );
      ( "conn-words",
        [
          Alcotest.test_case "connect allocates <= 175 words (native)" `Quick
            test_connect_words_native;
          Alcotest.test_case "connect allocates <= 235 words (cm-driven)" `Quick
            test_connect_words_cm;
          Alcotest.test_case "lazy timers: persist, consume, time-wait pinned" `Quick
            test_lazy_timers_pinned;
        ] );
    ]
