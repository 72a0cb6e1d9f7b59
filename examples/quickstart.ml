(* Quickstart: the CM request/callback loop in ~60 lines.

   Build a two-host network, attach a Congestion Manager to the sender,
   open a flow, and drive the paper's core loop by hand:

     cm_request -> cmapp_send grant -> transmit -> cm_notify (automatic,
     via the IP hook) -> receiver feedback -> cm_update -> window opens.

   Run with: dune exec examples/quickstart.exe *)

open Cm_util
open Eventsim
open Netsim
open Cm_spec

let () =
  (* 1. a 4 Mbps / 40 ms-RTT path between two hosts *)
  let engine = Engine.create () in
  let net = Build.pipe engine (Spec.pipe ~bw:4e6 ~lat:(Time.ms 20) ()) in

  (* 2. a Congestion Manager on the sending host, hooked into its IP
        output path so transmissions are charged automatically *)
  let cm = Cm.create engine ~mtu:1000 () in
  Cm.attach cm net.Build.a;

  (* 3. a trivial receiver that acknowledges every packet *)
  let _receiver = Udp.Cc_socket.run_echo_receiver net.Build.b ~port:9000 () in

  (* 4. a UDP socket and its CM flow *)
  let socket = Udp.Socket.create net.Build.a () in
  let dst = Addr.endpoint ~host:1 ~port:9000 in
  Udp.Socket.connect socket dst;
  let fid = Cm.open_flow cm (Addr.flow ~src:(Udp.Socket.local socket) ~dst ~proto:Addr.Udp ()) in

  (* 5. feedback plumbing: convert receiver acks into cm_update calls *)
  let fb =
    Udp.Feedback.Sender.create engine
      ~on_report:(fun ~nsent ~nrecd ~loss ~rtt ->
        Cm.update cm fid ~nsent ~nrecd ~loss ?rtt ())
      ()
  in
  Udp.Socket.on_receive socket (fun pkt ->
      match pkt.Packet.payload with
      | Udp.Feedback.Ack { max_seq; count; bytes; ts_echo } ->
          Udp.Feedback.Sender.on_ack fb ~max_seq ~count ~bytes ~ts_echo
      | _ -> ());

  (* 6. the ALF loop: each grant sends one packet and requests the next *)
  let sent = ref 0 in
  Cm.register_send cm fid (fun fid ->
      incr sent;
      let bytes = 1000 in
      let seq = Udp.Feedback.Sender.on_transmit fb ~bytes in
      Udp.Socket.send socket ~payload_bytes:bytes
        (Udp.Feedback.Data { seq; bytes; ts = Engine.now engine });
      if !sent < 2_000 then Cm.request cm fid);
  Cm.request cm fid;

  (* 7. run for five simulated seconds and report *)
  Engine.run_for engine (Time.sec 5.);
  let st = Cm.query cm fid in
  Format.printf "sent %d packets in 5 s@." !sent;
  Format.printf "CM state: %a@." Cm.Cm_types.pp_status st;
  Format.printf "achieved %.2f Mbit/s (link: 4.00 Mbit/s)@."
    (float_of_int (!sent * 1000 * 8) /. 5e6)
