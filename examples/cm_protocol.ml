(* The CM protocol: congestion-controlled UDP with ZERO feedback code.

   The paper's implementation requires every UDP application to implement
   its own acknowledgments (§3.1).  The CM-protocol extension
   (lib/cmproto, from the paper's §5 future work) moves that into the
   hosts' CMs: the sender's CM stamps each packet with a small header, the
   receiver's CM strips it and acknowledges on the application's behalf.

   Below, the receiving "application" is three lines long and never sends
   a byte — yet the sender is fully congestion controlled.

   Run with: dune exec examples/cm_protocol.exe *)

open Cm_util
open Eventsim
open Netsim
open Cm_spec

let () =
  let engine = Engine.create () in
  let net = Build.pipe engine (Spec.pipe ~bw:2e6 ~lat:(Time.ms 20) ()) in

  (* sender side: CM + the CM-protocol sender agent *)
  let cm = Cm.create engine ~mtu:1000 () in
  Cm.attach cm net.Build.a;
  let sender_agent = Cmproto.Sender_agent.install net.Build.a cm in

  (* receiver side: just the kernel agent — and an utterly passive app *)
  let receiver_agent = Cmproto.Receiver_agent.install net.Build.b () in
  let received = ref 0 in
  let app = Udp.Socket.create net.Build.b ~port:9000 () in
  Udp.Socket.on_receive app (fun pkt -> received := !received + Packet.payload_bytes pkt);

  (* a session sending 2000 datagrams as fast as the CM allows *)
  let session =
    Cmproto.Session.create sender_agent ~host:net.Build.a ~cm
      ~dst:(Addr.endpoint ~host:1 ~port:9000)
      ()
  in
  let sent = ref 0 in
  let feeder =
    Timer.create engine ~callback:(fun () ->
        while !sent < 2000 && Cmproto.Session.queued session < 64 do
          incr sent;
          Cmproto.Session.send session 900
        done)
  in
  Timer.start_periodic feeder (Time.ms 10);
  Engine.run_for engine (Time.sec 10.);
  Timer.stop feeder;

  let st = Cm.query cm (Cmproto.Session.flow session) in
  Format.printf "sent %d datagrams, app received %d bytes (link 2 Mbit/s for 10 s = 2.5 MB)@."
    (Cmproto.Session.packets_sent session)
    !received;
  Format.printf "kernel feedback packets: %d (app sent 0 acknowledgments)@."
    (Cmproto.Receiver_agent.feedback_sent receiver_agent);
  Format.printf "CM state: %a@." Cm.Cm_types.pp_status st
