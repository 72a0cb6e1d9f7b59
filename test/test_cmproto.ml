(* Tests for the CM protocol: receiver-side CM feedback (the paper's §5
   "remains to be studied" extension). *)

open Cm_util
open Eventsim
open Netsim
open Cm_spec

let ( => ) name cond = Alcotest.(check bool) name true cond

let make ?(bandwidth = 1e7) ?(delay = Time.ms 10) ?(loss = 0.) ?(seed = 1) () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed in
  let net = Build.pipe ~rng engine (Spec.pipe ~loss ~bw:bandwidth ~lat:delay ()) in
  let cm = Cm.create engine ~mtu:1000 () in
  Cm.attach cm net.Build.a;
  let sender_agent = Cmproto.Sender_agent.install net.Build.a cm in
  let receiver_agent = Cmproto.Receiver_agent.install net.Build.b () in
  (engine, net, cm, sender_agent, receiver_agent)

let test_unwrap () =
  let inner = Packet.Raw 42 in
  let wrapped = Cmproto.Data { seq = 7; ts = 9; inner } in
  "unwrap strips the header" => (Cmproto.unwrap wrapped == inner);
  "unwrap passes plain payloads" => (Cmproto.unwrap inner == inner)

let test_receiver_strips_header_for_app () =
  let engine, net, cm, agent, _r = make () in
  let got = ref [] in
  let server = Udp.Socket.create net.Build.b ~port:7000 () in
  Udp.Socket.on_receive server (fun pkt -> got := pkt.Packet.payload :: !got);
  let session =
    Cmproto.Session.create agent ~host:net.Build.a ~cm
      ~dst:(Addr.endpoint ~host:1 ~port:7000)
      ()
  in
  Cmproto.Session.send session 500;
  Engine.run_for engine (Time.ms 100);
  (match !got with
  | [ Packet.Raw 500 ] -> ()
  | [ _ ] -> Alcotest.fail "application saw a wrapped payload"
  | l -> Alcotest.fail (Printf.sprintf "expected exactly one packet, got %d" (List.length l)));
  "app never acknowledges anything" => (Udp.Socket.packets_sent server = 0)

let test_feedback_closes_the_loop () =
  let engine, _net, cm, agent, receiver = make () in
  let session =
    Cmproto.Session.create agent ~host:_net.Build.a ~cm
      ~dst:(Addr.endpoint ~host:1 ~port:7000)
      ()
  in
  (* note: no application socket at all on the receiver — the agent still
     acknowledges *)
  for _ = 1 to 20 do
    Cmproto.Session.send session 500
  done;
  Engine.run_for engine (Time.sec 2.);
  Alcotest.(check int) "all datagrams transmitted" 20 (Cmproto.Session.packets_sent session);
  Alcotest.(check int) "all resolved by kernel feedback" 0
    (Cmproto.Session.unresolved_packets session);
  "receiver agent saw the data" => (Cmproto.Receiver_agent.data_seen receiver = 20);
  "feedback flowed" => (Cmproto.Receiver_agent.feedback_sent receiver > 0);
  "sender consumed it" => (Cmproto.Sender_agent.feedback_received agent > 0)

let test_feedback_batches () =
  let engine, _net, cm, agent, receiver = make () in
  let session =
    Cmproto.Session.create agent ~host:_net.Build.a ~cm
      ~dst:(Addr.endpoint ~host:1 ~port:7000)
      ()
  in
  for _ = 1 to 40 do
    Cmproto.Session.send session 500
  done;
  Engine.run_for engine (Time.sec 3.);
  let fb = Cmproto.Receiver_agent.feedback_sent receiver in
  (* ack_every = 2: roughly one feedback per two data packets *)
  "feedback batched like delayed acks" => (fb <= 25 && fb >= 15);
  ignore engine

let test_window_opens_and_paces () =
  (* a 1 Mbit/s link: 100 KB must take >= ~0.8 s; the CM window must be
     driven purely by kernel feedback *)
  let engine, _net, cm, agent, _r = make ~bandwidth:1e6 () in
  let session =
    Cmproto.Session.create agent ~host:_net.Build.a ~cm
      ~dst:(Addr.endpoint ~host:1 ~port:7000)
      ()
  in
  for _ = 1 to 100 do
    Cmproto.Session.send session (1000 - Cmproto.header_bytes)
  done;
  Engine.run_for engine (Time.ms 500);
  "not everything can have been sent yet" => (Cmproto.Session.packets_sent session < 100);
  Engine.run_for engine (Time.sec 10.);
  Alcotest.(check int) "all sent eventually" 100 (Cmproto.Session.packets_sent session);
  Alcotest.(check int) "all resolved" 0 (Cmproto.Session.unresolved_packets session)

let test_loss_detected_via_gaps () =
  let engine, _net, cm, agent, _r = make ~loss:0.05 ~seed:9 () in
  let session =
    Cmproto.Session.create agent ~host:_net.Build.a ~cm
      ~dst:(Addr.endpoint ~host:1 ~port:7000)
      ()
  in
  let feeder = Timer.create engine ~callback:(fun () ->
      for _ = 1 to 10 do
        if Cmproto.Session.queued session < 64 then Cmproto.Session.send session 500
      done)
  in
  Timer.start_periodic feeder (Time.ms 20);
  Engine.run_for engine (Time.sec 10.);
  Timer.stop feeder;
  let mf = Cm.macroflow_of cm (Cmproto.Session.flow session) in
  "losses fed the loss estimate" => (Cm.Macroflow.loss_rate mf > 0.001);
  "window stayed sane" => (Cm.Macroflow.cwnd mf < 1_000_000)

let test_rtt_reaches_cm () =
  let engine, _net, cm, agent, _r = make ~delay:(Time.ms 25) () in
  let session =
    Cmproto.Session.create agent ~host:_net.Build.a ~cm
      ~dst:(Addr.endpoint ~host:1 ~port:7000)
      ()
  in
  for _ = 1 to 10 do
    Cmproto.Session.send session 500
  done;
  Engine.run_for engine (Time.sec 2.);
  match (Cm.query cm (Cmproto.Session.flow session)).Cm.Cm_types.srtt with
  | Some srtt -> "srtt near the 50 ms path rtt" => (srtt > Time.ms 45 && srtt < Time.ms 150)
  | None -> Alcotest.fail "no rtt reached the CM"

let test_plain_traffic_untouched () =
  (* non-CM-protocol packets must pass both agents unmodified *)
  let engine, net, _cm, _agent, _r = make () in
  let got = ref 0 in
  let server = Udp.Socket.create net.Build.b ~port:7777 () in
  Udp.Socket.on_receive server (fun pkt -> got := Packet.payload_bytes pkt);
  let plain = Udp.Socket.create net.Build.a () in
  Udp.Socket.sendto plain ~dst:(Addr.endpoint ~host:1 ~port:7777) ~payload_bytes:123
    (Packet.Raw 123);
  Engine.run_for engine (Time.ms 100);
  Alcotest.(check int) "plain packet delivered unchanged" 123 !got

let test_orphan_feedback_counted () =
  let engine, _net, cm, agent, _r = make () in
  let session =
    Cmproto.Session.create agent ~host:_net.Build.a ~cm
      ~dst:(Addr.endpoint ~host:1 ~port:7000)
      ()
  in
  Cmproto.Session.send session 500;
  Engine.run_for engine (Time.ms 20);
  (* close before the feedback returns *)
  Cmproto.Session.close session;
  Engine.run_for engine (Time.sec 1.);
  "late feedback counted as orphan" => (Cmproto.Sender_agent.orphan_feedback agent >= 1)

let test_session_close_releases () =
  let engine, _net, cm, agent, _r = make () in
  let session =
    Cmproto.Session.create agent ~host:_net.Build.a ~cm
      ~dst:(Addr.endpoint ~host:1 ~port:7000)
      ()
  in
  Engine.run_for engine (Time.ms 10);
  Cmproto.Session.close session;
  Alcotest.(check (list int)) "cm flow released" [] (Cm.flows cm);
  "send after close raises"
  => (try
        Cmproto.Session.send session 100;
        false
      with Invalid_argument _ -> true)

(* A session opened with a service class must carry it on its packets:
   the CM's key includes the dscp, so unmarked packets would never be
   charged to the flow and every feedback packet would be an orphan. *)
let test_session_dscp_reaches_the_wire () =
  let engine, net, cm, agent, _r = make () in
  let session =
    Cmproto.Session.create agent ~host:net.Build.a ~cm
      ~dst:(Addr.endpoint ~host:1 ~port:7000)
      ~dscp:46 ()
  in
  let marked = ref 0 in
  Host.add_tx_hook net.Build.a (fun pkt ->
      match pkt.Packet.payload with
      | Cmproto.Data _ -> if pkt.Packet.flow.Addr.dscp = 46 then incr marked
      | _ -> ());
  for _ = 1 to 20 do
    Cmproto.Session.send session 500
  done;
  Engine.run_for engine (Time.sec 2.);
  Alcotest.(check int) "all datagrams transmitted" 20 (Cmproto.Session.packets_sent session);
  Alcotest.(check int) "every datagram marked" 20 !marked;
  Alcotest.(check int) "all resolved" 0 (Cmproto.Session.unresolved_packets session);
  Alcotest.(check int) "no orphan feedback" 0 (Cmproto.Sender_agent.orphan_feedback agent);
  Alcotest.(check (list string)) "auditor clean" [] (Cm.Audit.run cm).Cm.Audit.violations

(* Allocation budget of the datagram path: a session at [ack_every:1]
   over a 10 Mbps pipe, 500-byte datagrams kept 32 deep in its queue.
   Per delivered datagram (50.1 minor words measured): the data packet
   (7 words with the header) with its two payload records, the feedback
   packet (7) with its payload, the CM grant (7), the copy of the
   packet the receiver agent hands the application (7) and the CM
   lookup's option.  Two-bool ECN fields (8-word packets) and a
   scheduler dequeue option read 55.1.  A per-datagram flow, table
   entry, tuple or option anywhere on the path pushes it well past the
   budget (a build with them read ~104). *)
let test_datagram_path_alloc_budget () =
  let engine = Engine.create () in
  let net = Build.pipe engine (Spec.pipe ~bw:1e7 ~lat:(Time.ms 10) ()) in
  let cm = Cm.create engine ~mtu:1000 () in
  Cm.attach cm net.Build.a;
  let agent = Cmproto.Sender_agent.install net.Build.a cm in
  let _receiver = Cmproto.Receiver_agent.install net.Build.b ~ack_every:1 () in
  let session =
    Cmproto.Session.create agent ~host:net.Build.a ~cm
      ~dst:(Addr.endpoint ~host:1 ~port:7000)
      ()
  in
  let delivered = ref 0 in
  let sink = Udp.Socket.create net.Build.b ~port:7000 () in
  Udp.Socket.on_receive sink (fun _ -> incr delivered);
  let pump =
    Timer.create engine ~callback:(fun () ->
        while Cmproto.Session.queued session < 32 do
          Cmproto.Session.send session 500
        done)
  in
  Timer.start_periodic pump (Time.ms 1);
  (* warm-up: slow start, ring, table and event-pool growth *)
  Engine.run_for engine (Time.sec 1.);
  let d0 = !delivered in
  let w0 = Gc.minor_words () in
  Engine.run_for engine (Time.sec 5.);
  let words = Gc.minor_words () -. w0 in
  Timer.stop pump;
  let measured = !delivered - d0 in
  "most of the pipe used" => (measured > 5_000);
  let per_datagram = words /. float_of_int measured in
  if per_datagram > 53. then
    Alcotest.failf "%.1f minor words per delivered datagram (budget 53)" per_datagram

(* ---- feedback-plane hardening ------------------------------------------- *)

module Control_faults = Cm_dynamics.Control_faults

(* like [make], but with control-fault injectors registered before the
   agents (receive filters run in registration order: the injector must
   see control packets before the agent consumes them) and the CM fully
   defended *)
let make_hardened ?(bandwidth = 1e7) ?(delay = Time.ms 10) ?(seed = 1) () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed in
  let net = Build.pipe ~rng engine (Spec.pipe ~bw:bandwidth ~lat:delay ()) in
  let cm =
    Cm.create engine ~mtu:1000 ~feedback_watchdog:Cm.Macroflow.default_watchdog
      ~auditor:Cm.default_auditor ()
  in
  Cm.attach cm net.Build.a;
  let snd_inj = Control_faults.install net.Build.a ~classify:Cmproto.is_control in
  let rcv_inj = Control_faults.install net.Build.b ~classify:Cmproto.is_control in
  let agent = Cmproto.Sender_agent.install net.Build.a cm in
  let receiver = Cmproto.Receiver_agent.install net.Build.b () in
  (engine, net, cm, agent, receiver, snd_inj, rcv_inj, rng)

(* one 40-packet transfer, optionally with a control-plane filter
   installed before the agents; returns what the hardening must keep
   invariant under duplication/reordering *)
let run_transfer ?twiddle () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:1 in
  let net = Build.pipe ~rng engine (Spec.pipe ~bw:1e7 ~lat:(Time.ms 10) ()) in
  let cm = Cm.create engine ~mtu:1000 () in
  Cm.attach cm net.Build.a;
  (match twiddle with Some f -> f engine net | None -> ());
  let agent = Cmproto.Sender_agent.install net.Build.a cm in
  let _receiver = Cmproto.Receiver_agent.install net.Build.b () in
  let session =
    Cmproto.Session.create agent ~host:net.Build.a ~cm
      ~dst:(Addr.endpoint ~host:1 ~port:7000)
      ()
  in
  for _ = 1 to 40 do
    Cmproto.Session.send session 500
  done;
  Engine.run_for engine (Time.sec 5.);
  let srtt = (Cm.query cm (Cmproto.Session.flow session)).Cm.Cm_types.srtt in
  ( srtt,
    Cmproto.Session.packets_sent session,
    Cmproto.Session.unresolved_packets session,
    Cmproto.Sender_agent.counters agent,
    (Cm.counters cm).Cm.updates )

let test_duplicate_feedback_rejected () =
  let clean_srtt, clean_sent, clean_unres, _, clean_updates = run_transfer () in
  (* duplicate every control packet in the same tick *)
  let dup_filter engine net =
    let replaying = ref false in
    Host.add_rx_filter net.Build.a (fun pkt ->
        if (not !replaying) && Cmproto.is_control pkt then
          ignore
            (Engine.schedule_after engine 0 (fun () ->
                 replaying := true;
                 Host.deliver net.Build.a pkt;
                 replaying := false));
        Some pkt)
  in
  let srtt, sent, unres, d, updates = run_transfer ~twiddle:dup_filter () in
  "duplicates were seen and dropped" => (d.Cmproto.Sender_agent.dup_feedback > 0);
  Alcotest.(check int) "same packets sent" clean_sent sent;
  Alcotest.(check int) "everything resolved" clean_unres unres;
  Alcotest.(check int) "identical cm_update stream" clean_updates updates;
  match (clean_srtt, srtt) with
  | Some a, Some b -> Alcotest.(check int) "identical srtt" a b
  | _ -> Alcotest.fail "srtt missing"

let test_reordered_feedback_merged () =
  let clean_srtt, clean_sent, _, _, _ = run_transfer () in
  (* capture three consecutive feedback packets and re-deliver them fully
     reversed: the newest cumulative packet must supersede the two
     stragglers *)
  let reorder_filter engine net =
    let buf = ref [] and seen = ref 0 and replaying = ref false in
    Host.add_rx_filter net.Build.a (fun pkt ->
        if !replaying || not (Cmproto.is_control pkt) then Some pkt
        else begin
          incr seen;
          if !seen >= 4 && !seen <= 6 then begin
            buf := pkt :: !buf;
            (* cons order = newest first = full reversal on release *)
            if List.length !buf = 3 then begin
              let pkts = !buf in
              buf := [];
              ignore
                (Engine.schedule_after engine (Time.ms 1) (fun () ->
                     replaying := true;
                     List.iter (Host.deliver net.Build.a) pkts;
                     replaying := false))
            end;
            None
          end
          else Some pkt
        end)
  in
  let srtt, sent, unres, d, _ = run_transfer ~twiddle:reorder_filter () in
  "the two stragglers were dropped" => (d.Cmproto.Sender_agent.dup_feedback >= 2);
  "no echo ever looked like the future" => (d.Cmproto.Sender_agent.bad_echoes = 0);
  Alcotest.(check int) "same packets sent" clean_sent sent;
  Alcotest.(check int) "everything resolved" 0 unres;
  match (clean_srtt, srtt) with
  | Some a, Some b ->
      "srtt within 5 ms of the in-order run"
      => (abs (a - b) < Time.ms 5 && b > 0)
  | _ -> Alcotest.fail "srtt missing"

let test_future_echo_clamped () =
  (* regression: a reordered/forged echo from the future must never
     produce a negative RTT sample — the guard drops the sample and
     counts it *)
  let engine, net, cm, agent, _r = make () in
  let session =
    Cmproto.Session.create agent ~host:net.Build.a ~cm
      ~dst:(Addr.endpoint ~host:1 ~port:7000)
      ()
  in
  for _ = 1 to 4 do
    Cmproto.Session.send session 500
  done;
  Engine.run_for engine (Time.sec 1.);
  let fid = Cmproto.Session.flow session in
  let srtt_before = (Cm.query cm fid).Cm.Cm_types.srtt in
  let data_flow = Cm.flow_key cm fid in
  let now = Engine.now engine in
  (* fb_seq far ahead so the dup guard accepts it; totals equal to what
     is already applied (4 packets x (500 + header) wire bytes) so the
     deltas are zero — only the poisoned echo distinguishes it *)
  let forged =
    Packet.make ~now
      ~flow:(Cmproto.feedback_flow ~from_host:1 ~to_host:0)
      ~payload_bytes:Cmproto.feedback_wire_bytes
      (Cmproto.Feedback
         {
           data_flow;
           epoch = 0;
           fb_seq = 9999;
           max_seq = 4;
           total_count = 4;
           total_bytes = 4 * (500 + Cmproto.header_bytes);
           ts_echo = Time.add now (Time.sec 5.);
         })
  in
  Host.deliver net.Build.a forged;
  Engine.run_for engine (Time.ms 50);
  Alcotest.(check int) "future echo clamped and counted" 1
    (Cmproto.Sender_agent.counters agent).Cmproto.Sender_agent.bad_echoes;
  let srtt_after = (Cm.query cm fid).Cm.Cm_types.srtt in
  (match srtt_after with
  | Some s -> "srtt still positive" => (s > 0)
  | None -> ());
  "poisoned sample never reached the estimator" => (srtt_before = srtt_after)

let blackout = { Control_faults.drop = 1.0; dup = 0.0; delay = 0; jitter = 0 }

let test_blackout_decays_and_recovers () =
  let engine, net, cm, agent, _recv, snd_inj, rcv_inj, rng = make_hardened () in
  let session =
    Cmproto.Session.create agent ~host:net.Build.a ~cm
      ~dst:(Addr.endpoint ~host:1 ~port:7000)
      ~queue_limit_pkts:64 ()
  in
  let pump =
    Timer.create engine ~callback:(fun () ->
        while Cmproto.Session.queued session < 16 do
          Cmproto.Session.send session 500
        done)
  in
  Timer.start_periodic pump (Time.ms 5);
  (* total control-plane partition from 2 s to 5 s *)
  Control_faults.engage snd_inj ~rng:(Rng.split rng) ~at:(Time.sec 2.) ~profile:blackout
    ~duration:(Time.sec 3.);
  Control_faults.engage rcv_inj ~rng:(Rng.split rng) ~at:(Time.sec 2.) ~profile:blackout
    ~duration:(Time.sec 3.);
  let fid = Cmproto.Session.flow session in
  let pre_cwnd = ref 0 and floor_cwnd = ref max_int and sent_at_fault_end = ref 0 in
  ignore
    (Engine.schedule_at engine (Time.sec 2.) (fun () ->
         pre_cwnd := (Cm.query cm fid).Cm.Cm_types.cwnd));
  let rec probe () =
    let now = Engine.now engine in
    if now >= Time.sec 4. && now < Time.sec 5. then begin
      let c = (Cm.query cm fid).Cm.Cm_types.cwnd in
      if c < !floor_cwnd then floor_cwnd := c
    end;
    if now < Time.sec 5. then ignore (Engine.schedule_after engine (Time.ms 100) probe)
  in
  ignore (Engine.schedule_at engine (Time.sec 4.) probe);
  ignore
    (Engine.schedule_at engine (Time.sec 5.) (fun () ->
         sent_at_fault_end := Cmproto.Session.packets_sent session));
  Engine.run_for engine (Time.sec 12.);
  Timer.stop pump;
  "watchdog aged the silent window" => (Cm.watchdog_fires cm > 0);
  "cwnd decayed toward the floor" => (!floor_cwnd < !pre_cwnd);
  "sender solicited the receiver" => (Cmproto.Session.solicits_sent session >= 1);
  "goodput resumed after the blackout"
  => (Cmproto.Session.packets_sent session > !sent_at_fault_end + 100);
  Alcotest.(check (list string)) "auditor clean throughout" []
    (Cm.Audit.run cm).Cm.Audit.violations

let test_solicit_backoff_bounded () =
  (* only the feedback direction is dark: the sender starves, solicits
     with exponential backoff — a handful of solicits over 3 s, not one
     per maintenance tick *)
  let engine, net, cm, agent, _recv, snd_inj, _rcv_inj, rng = make_hardened () in
  let session =
    Cmproto.Session.create agent ~host:net.Build.a ~cm
      ~dst:(Addr.endpoint ~host:1 ~port:7000)
      ~queue_limit_pkts:64 ()
  in
  let pump =
    Timer.create engine ~callback:(fun () ->
        while Cmproto.Session.queued session < 16 do
          Cmproto.Session.send session 500
        done)
  in
  Timer.start_periodic pump (Time.ms 5);
  Control_faults.engage snd_inj ~rng:(Rng.split rng) ~at:(Time.sec 1.) ~profile:blackout
    ~duration:(Time.sec 3.);
  Engine.run_for engine (Time.sec 6.);
  Timer.stop pump;
  let solicits = Cmproto.Session.solicits_sent session in
  "solicited at least twice" => (solicits >= 2);
  "but backed off exponentially" => (solicits <= 10)

let test_receiver_crash_restart_resync () =
  let engine, net, cm, agent, receiver, _si, _ri, _rng = make_hardened () in
  let session =
    Cmproto.Session.create agent ~host:net.Build.a ~cm
      ~dst:(Addr.endpoint ~host:1 ~port:7000)
      ~queue_limit_pkts:64 ()
  in
  let pump =
    Timer.create engine ~callback:(fun () ->
        while Cmproto.Session.queued session < 16 do
          Cmproto.Session.send session 500
        done)
  in
  Timer.start_periodic pump (Time.ms 5);
  ignore
    (Engine.schedule_at engine (Time.sec 1.) (fun () -> Cmproto.Receiver_agent.crash receiver));
  ignore
    (Engine.schedule_at engine (Time.sec 1.5) (fun () ->
         Cmproto.Receiver_agent.restart receiver));
  Engine.run_for engine (Time.sec 6.);
  Timer.stop pump;
  Engine.run_for engine (Time.sec 2.);
  Alcotest.(check int) "receiver came back with a new epoch" 1
    (Cmproto.Receiver_agent.epoch receiver);
  "receiver announced the restart" => (Cmproto.Receiver_agent.resyncs_sent receiver >= 1);
  "sender resynchronized" =>
  ((Cmproto.Sender_agent.counters agent).Cmproto.Sender_agent.resyncs >= 1);
  "data dropped while down was counted"
  => (Cmproto.Receiver_agent.dropped_while_down receiver > 0);
  Alcotest.(check int) "ledger fully resolved after resync" 0
    (Cmproto.Session.unresolved_packets session);
  Alcotest.(check (list string)) "auditor clean" [] (Cm.Audit.run cm).Cm.Audit.violations

let () =
  Alcotest.run "cmproto"
    [
      ( "wire",
        [
          Alcotest.test_case "unwrap" `Quick test_unwrap;
          Alcotest.test_case "receiver strips header" `Quick test_receiver_strips_header_for_app;
          Alcotest.test_case "plain traffic untouched" `Quick test_plain_traffic_untouched;
        ] );
      ( "feedback",
        [
          Alcotest.test_case "closes the loop without app code" `Quick
            test_feedback_closes_the_loop;
          Alcotest.test_case "batches like delayed acks" `Quick test_feedback_batches;
          Alcotest.test_case "rtt reaches the cm" `Quick test_rtt_reaches_cm;
          Alcotest.test_case "orphan feedback counted" `Quick test_orphan_feedback_counted;
        ] );
      ( "session",
        [
          Alcotest.test_case "window paces transmissions" `Quick test_window_opens_and_paces;
          Alcotest.test_case "loss via sequence gaps" `Quick test_loss_detected_via_gaps;
          Alcotest.test_case "close releases resources" `Quick test_session_close_releases;
          Alcotest.test_case "dscp reaches the wire" `Quick test_session_dscp_reaches_the_wire;
          Alcotest.test_case "alloc budget (53 words/datagram)" `Quick
            test_datagram_path_alloc_budget;
        ] );
      ( "hardening",
        [
          Alcotest.test_case "duplicate feedback rejected" `Quick
            test_duplicate_feedback_rejected;
          Alcotest.test_case "3-packet reordering merged" `Quick
            test_reordered_feedback_merged;
          Alcotest.test_case "future ts_echo clamped (no negative rtt)" `Quick
            test_future_echo_clamped;
          Alcotest.test_case "blackout decays to floor, recovers" `Quick
            test_blackout_decays_and_recovers;
          Alcotest.test_case "solicitation backs off exponentially" `Quick
            test_solicit_backoff_bounded;
          Alcotest.test_case "receiver crash/restart resyncs" `Quick
            test_receiver_crash_restart_resync;
        ] );
    ]
