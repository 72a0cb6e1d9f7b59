(* Tests for the UDP substrate: sockets, the feedback (app-level ack)
   protocol, and congestion-controlled UDP sockets. *)

open Cm_util
open Eventsim
open Netsim
open Cm_spec

let ( => ) name cond = Alcotest.(check bool) name true cond

let make () =
  let engine = Engine.create () in
  let net = Build.pipe engine (Spec.pipe ~bw:1e7 ~lat:(Time.ms 5) ()) in
  (engine, net)

(* ---- Socket ----------------------------------------------------------- *)

let test_socket_roundtrip () =
  let engine, net = make () in
  let server = Udp.Socket.create net.Build.b ~port:53 () in
  let got = ref 0 in
  Udp.Socket.on_receive server (fun pkt -> got := Packet.payload_bytes pkt);
  let client = Udp.Socket.create net.Build.a () in
  Udp.Socket.sendto client ~dst:(Addr.endpoint ~host:1 ~port:53) ~payload_bytes:321
    (Packet.Raw 321);
  Engine.run engine;
  Alcotest.(check int) "payload delivered" 321 !got;
  Alcotest.(check int) "tx counted" 1 (Udp.Socket.packets_sent client);
  Alcotest.(check int) "rx counted" 1 (Udp.Socket.packets_received server)

let test_socket_connect_and_reply () =
  let engine, net = make () in
  let server = Udp.Socket.create net.Build.b ~port:53 () in
  Udp.Socket.on_receive server (fun pkt ->
      Udp.Socket.sendto server ~dst:pkt.Packet.flow.Addr.src ~payload_bytes:10 (Packet.Raw 10));
  let client = Udp.Socket.create net.Build.a () in
  Udp.Socket.connect client (Addr.endpoint ~host:1 ~port:53);
  let replies = ref 0 in
  Udp.Socket.on_receive client (fun _ -> incr replies);
  Udp.Socket.send client ~payload_bytes:5 (Packet.Raw 5);
  Engine.run engine;
  Alcotest.(check int) "reply came back to connected socket" 1 !replies;
  (match Udp.Socket.peer client with
  | Some p -> Alcotest.(check int) "peer host" 1 p.Addr.host
  | None -> Alcotest.fail "expected a peer")

let test_socket_close_releases_port () =
  let engine, net = make () in
  ignore engine;
  let s1 = Udp.Socket.create net.Build.a ~port:1000 () in
  Udp.Socket.close s1;
  let s2 = Udp.Socket.create net.Build.a ~port:1000 () in
  ignore s2;
  "rebind after close succeeded" => true;
  "send on closed socket raises"
  => (try
        Udp.Socket.sendto s1 ~dst:(Addr.endpoint ~host:1 ~port:1) ~payload_bytes:1 (Packet.Raw 1);
        false
      with Invalid_argument _ -> true)

(* ---- Feedback.Receiver -------------------------------------------------- *)

let test_receiver_immediate_acks () =
  let engine = Engine.create () in
  let acks = ref [] in
  let r =
    Udp.Feedback.Receiver.create engine
      ~send_ack:(fun ~max_seq ~count ~bytes ~ts_echo ->
        acks := (max_seq, count, bytes, ts_echo) :: !acks)
      ()
  in
  Udp.Feedback.Receiver.on_data r ~seq:0 ~bytes:100 ~ts:111;
  Udp.Feedback.Receiver.on_data r ~seq:1 ~bytes:200 ~ts:222;
  Alcotest.(check int) "one ack per packet" 2 (List.length !acks);
  (match !acks with
  | (max_seq, count, bytes, ts) :: _ ->
      Alcotest.(check int) "latest seq" 1 max_seq;
      Alcotest.(check int) "count 1" 1 count;
      Alcotest.(check int) "bytes of that packet" 200 bytes;
      Alcotest.(check int) "timestamp echoed" 222 ts
  | [] -> Alcotest.fail "no acks");
  Alcotest.(check int) "totals" 2 (Udp.Feedback.Receiver.packets_received r);
  Alcotest.(check int) "byte totals" 300 (Udp.Feedback.Receiver.bytes_received r)

let test_receiver_batches_by_count () =
  let engine = Engine.create () in
  let acks = ref [] in
  let r =
    Udp.Feedback.Receiver.create engine
      ~send_ack:(fun ~max_seq ~count ~bytes ~ts_echo ->
        ignore ts_echo;
        acks := (max_seq, count, bytes) :: !acks)
      ~batch:(3, Time.sec 10.) ()
  in
  for seq = 0 to 5 do
    Udp.Feedback.Receiver.on_data r ~seq ~bytes:100 ~ts:1
  done;
  Alcotest.(check int) "two batched acks for six packets" 2 (List.length !acks);
  match !acks with
  | (m2, c2, b2) :: (m1, c1, b1) :: _ ->
      Alcotest.(check (list int)) "batch contents" [ 2; 3; 300; 5; 3; 300 ]
        [ m1; c1; b1; m2; c2; b2 ]
  | _ -> Alcotest.fail "unexpected acks"

let test_receiver_batches_by_time () =
  let engine = Engine.create () in
  let acks = ref 0 in
  let r =
    Udp.Feedback.Receiver.create engine
      ~send_ack:(fun ~max_seq:_ ~count:_ ~bytes:_ ~ts_echo:_ -> incr acks)
      ~batch:(100, Time.ms 50) ()
  in
  Udp.Feedback.Receiver.on_data r ~seq:0 ~bytes:10 ~ts:1;
  Engine.run_for engine (Time.ms 40);
  Alcotest.(check int) "not yet" 0 !acks;
  Engine.run_for engine (Time.ms 20);
  Alcotest.(check int) "flushed by timer" 1 !acks

(* ---- Feedback.Sender ------------------------------------------------------ *)

(* one [on_report] call, its labeled arguments gathered for assertions *)
type report = { nsent : int; nrecd : int; loss : Cm.Cm_types.loss_mode; rtt : Time.span option }

let collect reports ~nsent ~nrecd ~loss ~rtt = reports := { nsent; nrecd; loss; rtt } :: !reports

let test_sender_resolves_and_samples_rtt () =
  let engine = Engine.create () in
  let reports = ref [] in
  let s = Udp.Feedback.Sender.create engine ~on_report:(collect reports) () in
  Engine.run_for engine (Time.ms 5);
  let sent_at = Engine.now engine in
  let seq = Udp.Feedback.Sender.on_transmit s ~bytes:500 in
  Alcotest.(check int) "first seq is 0" 0 seq;
  Engine.run_for engine (Time.ms 30);
  Udp.Feedback.Sender.on_ack s ~max_seq:0 ~count:1 ~bytes:500 ~ts_echo:sent_at;
  (match !reports with
  | [ r ] ->
      Alcotest.(check int) "nsent" 500 r.nsent;
      Alcotest.(check int) "nrecd" 500 r.nrecd;
      "no loss" => (r.loss = Cm.Cm_types.No_loss);
      (match r.rtt with
      | Some rtt -> Alcotest.(check int) "rtt = 30ms" (Time.ms 30) rtt
      | None -> Alcotest.fail "expected rtt")
  | _ -> Alcotest.fail "expected one report");
  Alcotest.(check int) "nothing outstanding" 0 (Udp.Feedback.Sender.outstanding_packets s)

let test_sender_detects_gap_loss () =
  let engine = Engine.create () in
  let reports = ref [] in
  let s = Udp.Feedback.Sender.create engine ~on_report:(collect reports) () in
  (* a whole window of ten packets is in flight before any feedback *)
  for _ = 0 to 9 do
    ignore (Udp.Feedback.Sender.on_transmit s ~bytes:100)
  done;
  (* receiver saw only 4 of the 5 packets up to seq 4 *)
  Udp.Feedback.Sender.on_ack s ~max_seq:4 ~count:4 ~bytes:400 ~ts_echo:0;
  (match !reports with
  | [ r ] ->
      Alcotest.(check int) "five resolved" 500 r.nsent;
      Alcotest.(check int) "four arrived" 400 r.nrecd;
      "transient loss" => (r.loss = Cm.Cm_types.Transient)
  | _ -> Alcotest.fail "expected one report");
  (* a second loss in the same in-flight window must not re-report *)
  reports := [];
  Udp.Feedback.Sender.on_ack s ~max_seq:9 ~count:4 ~bytes:400 ~ts_echo:0;
  (match !reports with
  | [ r ] -> "gated within window" => (r.loss = Cm.Cm_types.No_loss)
  | _ -> Alcotest.fail "expected one report")

let test_sender_timeout_persistent () =
  let engine = Engine.create () in
  let reports = ref [] in
  let s =
    Udp.Feedback.Sender.create engine
      ~on_report:(collect reports)
      ~timeout_floor:(Time.ms 300) ()
  in
  for _ = 0 to 2 do
    ignore (Udp.Feedback.Sender.on_transmit s ~bytes:100)
  done;
  Engine.run_for engine (Time.sec 1.);
  (match !reports with
  | [ r ] ->
      "persistent after silence" => (r.loss = Cm.Cm_types.Persistent);
      Alcotest.(check int) "all bytes written off" 300 r.nsent;
      Alcotest.(check int) "nothing received" 0 r.nrecd
  | _ -> Alcotest.fail "expected exactly one timeout report");
  Alcotest.(check int) "outstanding cleared" 0 (Udp.Feedback.Sender.outstanding_packets s);
  Udp.Feedback.Sender.shutdown s

(* The maintenance clock parks while nothing is outstanding, and a
   transmission wakes it on its 100 ms phase: a silence declares loss and
   solicits at exactly the virtual times an always-ticking clock gives
   (the expected list was recorded with one). *)
let feedback_silence_script ~on_idle =
  let engine = Engine.create () in
  let log = ref [] in
  let note what = log := (Engine.now engine, what) :: !log in
  let s =
    Udp.Feedback.Sender.create engine
      ~on_report:(fun ~nsent:_ ~nrecd:_ ~loss ~rtt:_ ->
        if loss = Cm.Cm_types.Persistent then note "lost")
      ~on_starve:(fun () -> note "solicit")
      ()
  in
  let send () = ignore (Udp.Feedback.Sender.on_transmit s ~bytes:100 : int) in
  Engine.run ~until:(Time.us 1_234_500) engine;
  on_idle engine;
  send ();
  (* queued before the 1.3 s tick takes the 1.4 s tick's stamp, so it
     runs ahead of that tick at the same nanosecond *)
  ignore (Engine.schedule_at engine (Time.ms 1_400) send);
  Engine.run ~until:(Time.ms 2_050) engine;
  send ();
  Engine.run ~until:(Time.ms 2_300) engine;
  Udp.Feedback.Sender.on_ack s ~max_seq:2 ~count:1 ~bytes:100 ~ts_echo:0;
  (* likewise ahead of the 2.5 s tick, which then sees 200 ms of silence *)
  ignore (Engine.schedule_at engine (Time.ms 2_500) send);
  Engine.run ~until:(Time.ms 3_500) engine;
  on_idle engine;
  ignore (Engine.schedule_after engine (Time.ms 50) send);
  Engine.run_for engine (Time.sec 1.);
  Udp.Feedback.Sender.shutdown s;
  List.rev !log

let test_sender_parked_clock_keeps_times () =
  let idle_checks = ref 0 in
  let log =
    feedback_silence_script ~on_idle:(fun engine ->
        incr idle_checks;
        Alcotest.(check int) "an idle sender queues nothing" 0 (Engine.pending engine))
  in
  Alcotest.(check int) "idle twice" 2 !idle_checks;
  Alcotest.(check (list (pair int string)))
    "solicit and loss times"
    [
      (Time.ms 1_300, "solicit");
      (Time.ms 1_300, "lost");
      (Time.ms 1_700, "solicit");
      (Time.ms 1_900, "lost");
      (Time.ms 2_500, "solicit");
      (Time.ms 2_700, "solicit");
      (Time.ms 2_900, "lost");
      (Time.ms 3_600, "lost");
    ]
    log

(* ---- Cc_socket -------------------------------------------------------------- *)

let make_cc ?(bandwidth = 1e6) () =
  let engine = Engine.create () in
  let net = Build.pipe engine (Spec.pipe ~bw:bandwidth ~lat:(Time.ms 10) ()) in
  let cm = Cm.create engine ~mtu:1000 () in
  Cm.attach cm net.Build.a;
  let receiver = Udp.Cc_socket.run_echo_receiver net.Build.b ~port:6000 () in
  let sock = Udp.Cc_socket.create net.Build.a ~cm ~dst:(Addr.endpoint ~host:1 ~port:6000) () in
  (engine, net, cm, receiver, sock)

let test_cc_socket_paces_and_delivers () =
  let engine, _net, _cm, receiver, sock = make_cc () in
  (* stay within the default kernel buffer (128) *)
  for _ = 1 to 100 do
    Udp.Cc_socket.send sock 1000
  done;
  Engine.run_for engine (Time.sec 10.);
  Alcotest.(check int) "every datagram delivered" 100
    (Udp.Feedback.Receiver.packets_received receiver);
  Alcotest.(check int) "sender accounted" 100 (Udp.Cc_socket.packets_sent sock);
  Alcotest.(check int) "no drops" 0 (Udp.Cc_socket.queue_drops sock);
  Alcotest.(check int) "queue drained" 0 (Udp.Cc_socket.queued sock)

(* A socket opened with a service class must carry it on its packets:
   the CM's key includes the dscp, so unmarked packets would never be
   charged to the flow and the window would never open past them. *)
let test_cc_socket_dscp_reaches_the_wire () =
  let engine = Engine.create () in
  let net = Build.pipe engine (Spec.pipe ~bw:1e7 ~lat:(Time.ms 10) ()) in
  let cm = Cm.create engine ~mtu:1000 () in
  Cm.attach cm net.Build.a;
  let receiver = Udp.Cc_socket.run_echo_receiver net.Build.b ~port:6000 () in
  let sock =
    Udp.Cc_socket.create net.Build.a ~cm ~dst:(Addr.endpoint ~host:1 ~port:6000) ~dscp:46 ()
  in
  for _ = 1 to 20 do
    Udp.Cc_socket.send sock 500
  done;
  Engine.run_for engine (Time.sec 2.);
  Alcotest.(check int) "all datagrams transmitted" 20 (Udp.Cc_socket.packets_sent sock);
  Alcotest.(check int) "all delivered" 20 (Udp.Feedback.Receiver.packets_received receiver);
  Alcotest.(check int) "all resolved" 0 (Udp.Cc_socket.unresolved_packets sock);
  Alcotest.(check (list string)) "auditor clean" [] (Cm.Audit.run cm).Cm.Audit.violations

let test_cc_socket_respects_congestion () =
  (* on a 1 Mbit/s link the CM must pace 200 KB over >= ~1.4 s *)
  let engine, _net, _cm, receiver, sock = make_cc ~bandwidth:1e6 () in
  for _ = 1 to 100 do
    Udp.Cc_socket.send sock 1000
  done;
  Engine.run_for engine (Time.ms 700);
  let early = Udp.Feedback.Receiver.bytes_received receiver in
  "cannot have delivered everything yet" => (early < 100_000);
  Engine.run_for engine (Time.sec 10.);
  Alcotest.(check int) "eventually all delivered" 100_000
    (Udp.Feedback.Receiver.bytes_received receiver);
  ignore sock

let test_cc_socket_queue_limit () =
  let engine = Engine.create () in
  let net = Build.pipe engine (Spec.pipe ~bw:1e6 ~lat:(Time.ms 10) ()) in
  let cm = Cm.create engine ~mtu:1000 () in
  Cm.attach cm net.Build.a;
  let _receiver = Udp.Cc_socket.run_echo_receiver net.Build.b ~port:6000 () in
  let sock =
    Udp.Cc_socket.create net.Build.a ~cm
      ~dst:(Addr.endpoint ~host:1 ~port:6000)
      ~queue_limit_pkts:10 ()
  in
  for _ = 1 to 50 do
    Udp.Cc_socket.send sock 1000
  done;
  "overflow datagrams dropped" => (Udp.Cc_socket.queue_drops sock > 0);
  "queue bounded" => (Udp.Cc_socket.queued sock <= 10);
  Engine.run_for engine (Time.ms 10)

let test_cc_socket_rejects_oversized () =
  let _engine, _net, _cm, _receiver, sock = make_cc () in
  "payload above mtu rejected"
  => (try
        Udp.Cc_socket.send sock 2000;
        false
      with Invalid_argument _ -> true);
  "zero payload rejected"
  => (try
        Udp.Cc_socket.send sock 0;
        false
      with Invalid_argument _ -> true)

let test_cc_socket_close () =
  let engine, _net, cm, _receiver, sock = make_cc () in
  Udp.Cc_socket.send sock 1000;
  Engine.run_for engine (Time.ms 100);
  Udp.Cc_socket.close sock;
  Alcotest.(check (list int)) "cm flow closed" [] (Cm.flows cm);
  "send after close raises"
  => (try
        Udp.Cc_socket.send sock 1000;
        false
      with Invalid_argument _ -> true)

let prop_feedback_conservation =
  QCheck.Test.make ~name:"feedback sender conserves bytes" ~count:100
    QCheck.(small_list (int_range 1 1400))
    (fun sizes ->
      let engine = Engine.create () in
      let resolved = ref 0 in
      let s =
        Udp.Feedback.Sender.create engine
          ~on_report:(fun ~nsent ~nrecd:_ ~loss:_ ~rtt:_ -> resolved := !resolved + nsent)
          ()
      in
      let total = List.fold_left ( + ) 0 sizes in
      List.iteri
        (fun i bytes ->
          let seq = Udp.Feedback.Sender.on_transmit s ~bytes in
          ignore i;
          ignore seq)
        sizes;
      (* ack everything in one batch *)
      Udp.Feedback.Sender.on_ack s ~max_seq:(List.length sizes - 1) ~count:(List.length sizes)
        ~bytes:total ~ts_echo:0;
      !resolved = total && Udp.Feedback.Sender.outstanding_bytes s = 0)


(* The ledger against a reference model: the seq-keyed [Hashtbl] the
   ring replaced, with the same resolution, loss and persistent-report
   rules.  Acks range from stale (at or below what is already resolved)
   to beyond [next_seq], which strands the seqs sent after them until a
   loss declaration. *)
module Ledger_model = struct
  type t = {
    tbl : (int, int) Hashtbl.t; (* seq -> bytes *)
    mutable next : int;
    mutable lowest : int;
    mutable recover : int;
    mutable reports : report list;
  }

  let create () = { tbl = Hashtbl.create 16; next = 0; lowest = 0; recover = 0; reports = [] }
  let emit m r = m.reports <- r :: m.reports

  let transmit m bytes =
    Hashtbl.replace m.tbl m.next bytes;
    m.next <- m.next + 1

  let declare_lost m =
    if Hashtbl.length m.tbl > 0 then begin
      let bytes = Hashtbl.fold (fun _ b acc -> acc + b) m.tbl 0 in
      Hashtbl.reset m.tbl;
      m.lowest <- m.next;
      m.recover <- m.next;
      emit m { nsent = bytes; nrecd = 0; loss = Cm.Cm_types.Persistent; rtt = None }
    end

  let ack m ~now ~max_seq ~count ~bytes ~ts_echo =
    let rtt =
      if ts_echo > 0 && Time.diff now ts_echo > 0 then Some (Time.diff now ts_echo) else None
    in
    let rp = ref 0 and rb = ref 0 in
    for seq = m.lowest to max_seq do
      match Hashtbl.find_opt m.tbl seq with
      | Some b ->
          incr rp;
          rb := !rb + b;
          Hashtbl.remove m.tbl seq
      | None -> ()
    done;
    if max_seq >= m.lowest then m.lowest <- max_seq + 1;
    if !rp = 0 then begin
      if rtt <> None then emit m { nsent = 0; nrecd = 0; loss = Cm.Cm_types.No_loss; rtt }
    end
    else begin
      let lost = !rp - Stdlib.min count !rp in
      let loss =
        if lost > 0 && max_seq >= m.recover then begin
          m.recover <- m.next;
          Cm.Cm_types.Transient
        end
        else Cm.Cm_types.No_loss
      in
      let nrecd = if lost > 0 then Stdlib.min bytes !rb else !rb in
      emit m { nsent = !rb; nrecd; loss; rtt }
    end

  let outstanding_bytes m = Hashtbl.fold (fun _ b acc -> acc + b) m.tbl 0
end

type ledger_op =
  | Tx of int  (** bytes *)
  | Ack of { delta : int; count : int; bytes : int; echo_age : int option }
      (** [max_seq = next_seq - 1 + delta]; echo [echo_age] ms ago *)
  | Resync
  | Silence  (** long enough for the maintenance timer's loss declaration *)

let pp_ledger_op = function
  | Tx b -> Printf.sprintf "Tx %d" b
  | Ack { delta; count; bytes; echo_age } ->
      Printf.sprintf "Ack(delta %d, count %d, bytes %d, echo %s)" delta count bytes
        (match echo_age with Some a -> string_of_int a | None -> "-")
  | Resync -> "Resync"
  | Silence -> "Silence"

let gen_ledger_op =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun b -> Tx b) (int_range 1 1500));
        ( 5,
          map
            (fun (delta, count, bytes, echo_age) -> Ack { delta; count; bytes; echo_age })
            (quad (int_range (-6) 3) (int_range 0 6) (int_range 0 3000)
               (opt (int_range 0 50))) );
        (1, return Resync);
        (1, return Silence);
      ])

let prop_ledger_matches_hashtbl_model =
  QCheck.Test.make ~name:"ledger ring matches the hashtbl model" ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_ledger_op ops))
       QCheck.Gen.(list_size (int_range 0 80) gen_ledger_op))
    (fun ops ->
      let engine = Engine.create () in
      let got = ref [] in
      let s = Udp.Feedback.Sender.create engine ~on_report:(collect got) () in
      let m = Ledger_model.create () in
      (* start late enough that every echo age gives a positive timestamp *)
      Engine.run_for engine (Time.sec 1.);
      List.for_all
        (fun op ->
          (match op with
          | Tx bytes ->
              let seq = Udp.Feedback.Sender.on_transmit s ~bytes in
              assert (seq = m.Ledger_model.next);
              Ledger_model.transmit m bytes
          | Ack { delta; count; bytes; echo_age } ->
              let now = Engine.now engine in
              let max_seq = m.Ledger_model.next - 1 + delta in
              let ts_echo = match echo_age with Some a -> now - Time.ms a | None -> 0 in
              Udp.Feedback.Sender.on_ack s ~max_seq ~count ~bytes ~ts_echo;
              Ledger_model.ack m ~now ~max_seq ~count ~bytes ~ts_echo
          | Resync ->
              Udp.Feedback.Sender.resync s;
              Ledger_model.declare_lost m
          | Silence ->
              Engine.run_for engine (Time.sec 2.);
              Ledger_model.declare_lost m);
          !got = m.Ledger_model.reports
          && Udp.Feedback.Sender.outstanding_packets s = Hashtbl.length m.Ledger_model.tbl
          && Udp.Feedback.Sender.outstanding_bytes s = Ledger_model.outstanding_bytes m)
        ops)


let prop_cc_socket_conservation =
  QCheck.Test.make ~name:"cc socket: received <= sent, all resolved" ~count:10
    QCheck.(pair (int_range 1 500) (int_range 20 120))
    (fun (seed, n) ->
      let engine = Engine.create () in
      let rng = Rng.create ~seed in
      let net =
        Build.pipe ~rng engine (Spec.pipe ~loss:0.02 ~bw:5e6 ~lat:(Time.ms 10) ())
      in
      let cm = Cm.create engine ~mtu:1000 () in
      Cm.attach cm net.Build.a;
      let receiver = Udp.Cc_socket.run_echo_receiver net.Build.b ~port:6000 () in
      let sock =
        Udp.Cc_socket.create net.Build.a ~cm ~dst:(Addr.endpoint ~host:1 ~port:6000) ()
      in
      for _ = 1 to n do
        Udp.Cc_socket.send sock 1000
      done;
      Engine.run_for engine (Time.sec 30.);
      let sent = Udp.Cc_socket.packets_sent sock in
      let recd = Udp.Feedback.Receiver.packets_received receiver in
      sent = n && recd <= n && Udp.Cc_socket.unresolved_packets sock = 0)

let () =
  Alcotest.run "udp"
    [
      ( "socket",
        [
          Alcotest.test_case "roundtrip" `Quick test_socket_roundtrip;
          Alcotest.test_case "connect and reply" `Quick test_socket_connect_and_reply;
          Alcotest.test_case "close releases port" `Quick test_socket_close_releases_port;
        ] );
      ( "feedback-receiver",
        [
          Alcotest.test_case "immediate acks" `Quick test_receiver_immediate_acks;
          Alcotest.test_case "batch by count" `Quick test_receiver_batches_by_count;
          Alcotest.test_case "batch by time" `Quick test_receiver_batches_by_time;
        ] );
      ( "feedback-sender",
        [
          Alcotest.test_case "resolution and rtt" `Quick test_sender_resolves_and_samples_rtt;
          Alcotest.test_case "gap loss detection" `Quick test_sender_detects_gap_loss;
          Alcotest.test_case "timeout -> persistent" `Quick test_sender_timeout_persistent;
          Alcotest.test_case "parked clock keeps loss and solicit times" `Quick
            test_sender_parked_clock_keeps_times;
          QCheck_alcotest.to_alcotest prop_feedback_conservation;
          QCheck_alcotest.to_alcotest prop_ledger_matches_hashtbl_model;
        ] );
      ( "cc-socket",
        [
          Alcotest.test_case "paces and delivers" `Quick test_cc_socket_paces_and_delivers;
          Alcotest.test_case "respects congestion" `Quick test_cc_socket_respects_congestion;
          Alcotest.test_case "dscp reaches the wire" `Quick test_cc_socket_dscp_reaches_the_wire;
          Alcotest.test_case "kernel queue limit" `Quick test_cc_socket_queue_limit;
          Alcotest.test_case "rejects bad sizes" `Quick test_cc_socket_rejects_oversized;
          Alcotest.test_case "close tears down" `Quick test_cc_socket_close;
          QCheck_alcotest.to_alcotest prop_cc_socket_conservation;
        ] );
    ]
