(* The spec DSL pipeline: parity of spec-built pipes (the scenarios
   family's, Spec.pipe with loss and a short reverse queue, and a
   Spec.cm host stack) with a pipe and CM wired by hand from Host, Link
   and Cm, the stack lookups, packets crossing a built pipe
   and a client trunk, static-check diagnostics (one negative test per
   code), routing (the next-hop table against a
   per-destination reference, packets following Check.route, no host as
   a next hop), structural checks of the sugar combinators, a qcheck
   property that random well-formed specs always check clean and compile,
   and determinism of the three DSL-native families. *)

open Cm_util
module Spec = Cm_spec.Spec
module Check = Cm_spec.Check
module Build = Cm_spec.Build
module Scenario = Cm_dynamics.Scenario
module Exp_common = Experiments.Exp_common
module Scenarios = Experiments.Scenarios
module Fattree = Experiments.Fattree
module Cdn_edge = Experiments.Cdn_edge
module Cellular = Experiments.Cellular

let params = { Exp_common.default_params with seed = 42 }

let check_invalid what f =
  match f () with
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s names the parameter: %S" what msg)
        true
        (String.length msg > 0)
  | _ -> Alcotest.fail (what ^ ": expected Invalid_argument")

(* ---- parity: Build ≡ a handwritten pipe --------------------------------- *)

(* A pipe wired by hand from Host and Link: the reference the parity
   tests hold Build to, so nothing in it goes through Spec, Check or
   Build.  Loss applies to a → b only. *)
let hand_pipe engine rng ~bw ~lat ~queue ~rev_queue ~loss =
  let a = Netsim.Host.create engine ~id:0 () in
  let b = Netsim.Host.create engine ~id:1 () in
  let link ~queue ~loss dst =
    Netsim.Link.create engine ~bandwidth_bps:bw ~delay:lat
      ~qdisc:(Netsim.Queue_disc.droptail ~limit_pkts:queue ())
      ~loss_rate:loss ~rng
      ~sink:(fun pkt -> Netsim.Host.deliver dst pkt)
      ()
  in
  let ab = link ~queue ~loss b in
  let ba = link ~queue:rev_queue ~loss:0. a in
  Netsim.Host.attach_route a (Netsim.Link.send ab);
  Netsim.Host.attach_route b (Netsim.Link.send ba);
  (a, b, ab, ba)

(* A sender's CM created and attached by hand. *)
let hand_cm ?mtu engine host =
  let cm = Cm.create engine ?mtu () in
  Cm.attach cm host;
  cm

(* One seeded TCP/CM bulk transfer a → b (and, with [both_ways], one
   b → a as well) on the pipe [make] builds, each sender's CM from the
   [cm_of] it returns, after [faults] are installed: (fwd stats, rev
   stats, bytes delivered to b, a's CM counters). *)
let bulk_run ?(both_ways = false) ?(faults = fun _ _ _ _ -> ()) ~duration make =
  Netsim.Packet.reset_ids ();
  let engine = Eventsim.Engine.create () in
  let rng = Rng.create ~seed:42 in
  let a, b, fwd, rev, cm_of = make engine rng in
  let transfer src dst ~dst_host =
    let cm = cm_of src in
    let delivered = ref 0 in
    let _listener =
      Tcp.Conn.listen dst ~port:80
        ~on_accept:(fun conn -> Tcp.Conn.on_receive conn (fun n -> delivered := !delivered + n))
        ()
    in
    let conn =
      Tcp.Conn.connect src
        ~dst:(Netsim.Addr.endpoint ~host:dst_host ~port:80)
        ~driver:(Tcp.Conn.Cm_driven cm) ()
    in
    Tcp.Conn.send conn (1 lsl 34);
    (delivered, cm)
  in
  let delivered, cm_a = transfer a b ~dst_host:1 in
  if both_ways then ignore (transfer b a ~dst_host:0 : int ref * Cm.t);
  faults engine rng fwd rev;
  Eventsim.Engine.run_for engine duration;
  (Netsim.Link.stats fwd, Netsim.Link.stats rev, !delivered, Cm.counters cm_a)

let with_hand_cms engine (a, b, fwd, rev) = (a, b, fwd, rev, hand_cm engine)

(* The scenarios family under its faults, on the handwritten pipe or on
   the same pipe compiled from the family's spec. *)
let bulk_under_faults id ~handwritten =
  let ir = Check.elaborate_exn (Scenarios.spec_of id) in
  let faults engine rng fwd rev =
    Scenario.compile engine ~rng
      ~links:[ ("fwd", fwd); ("rev", rev) ]
      (Build.scenario ~name:(Scenarios.scenario_name id) ir)
  in
  bulk_run ~faults ~duration:(Time.sec 24.) (fun engine rng ->
      with_hand_cms engine
        (if handwritten then
           hand_pipe engine rng ~bw:8e6 ~lat:(Time.ms 20) ~queue:50 ~rev_queue:1000 ~loss:0.
         else
           let built = Build.instantiate ~rng engine ir in
           ( Build.host built "a",
             Build.host built "b",
             Build.link built "fwd",
             Build.link built "rev" )))

let test_scenarios_parity () =
  List.iter
    (fun id ->
      let name = Scenarios.scenario_name id in
      let hand_fwd, hand_rev, hand_bytes, _ = bulk_under_faults id ~handwritten:true in
      let dsl_fwd, dsl_rev, dsl_bytes, _ = bulk_under_faults id ~handwritten:false in
      Alcotest.(check bool) (name ^ ": fwd link stats") true (hand_fwd = dsl_fwd);
      Alcotest.(check bool) (name ^ ": rev link stats") true (hand_rev = dsl_rev);
      Alcotest.(check int) (name ^ ": delivered bytes") hand_bytes dsl_bytes;
      Alcotest.(check bool) (name ^ ": traffic flowed") true (hand_bytes > 1_000_000))
    Scenarios.[ Burst_loss; Outage; Sawtooth ]

(* Spec.pipe's loss and reverse queue reach the built links: bulk both
   ways, so forward loss and reverse queue drops both show in the
   counters. *)
let test_pipe_parity () =
  let run make = bulk_run ~both_ways:true ~duration:(Time.sec 10.) make in
  let hand_fwd, hand_rev, hand_bytes, _ =
    run (fun engine rng ->
        with_hand_cms engine
          (hand_pipe engine rng ~bw:5e6 ~lat:(Time.ms 10) ~queue:100 ~rev_queue:7 ~loss:0.02))
  in
  let dsl_fwd, dsl_rev, dsl_bytes, _ =
    run (fun engine rng ->
        let net =
          Build.pipe ~rng engine (Spec.pipe ~loss:0.02 ~rev_queue:7 ~bw:5e6 ~lat:(Time.ms 10) ())
        in
        with_hand_cms engine (net.Build.a, net.Build.b, net.Build.ab, net.Build.ba))
  in
  Alcotest.(check bool) "fwd link stats" true (hand_fwd = dsl_fwd);
  Alcotest.(check bool) "rev link stats" true (hand_rev = dsl_rev);
  Alcotest.(check int) "delivered bytes" hand_bytes dsl_bytes;
  Alcotest.(check bool) "forward loss drew drops" true (hand_fwd.Netsim.Link.channel_drops > 0);
  Alcotest.(check bool) "reverse queue overflowed" true (hand_rev.Netsim.Link.queue_drops > 0)

(* A Spec.cm stack ≡ a CM created with the same mtu and attached by
   hand: Build must pass the mtu on and hook the CM into a's IP output
   (without the hook no transmission is charged, and the counters part). *)
let test_stack_parity () =
  let run make = bulk_run ~duration:(Time.sec 10.) make in
  let pipe = Spec.pipe ~loss:0.01 ~bw:5e6 ~lat:(Time.ms 10) () in
  let hand_fwd, hand_rev, hand_bytes, hand_cm_counters =
    run (fun engine rng ->
        let a, b, fwd, rev =
          hand_pipe engine rng ~bw:5e6 ~lat:(Time.ms 10) ~queue:100 ~rev_queue:1000 ~loss:0.01
        in
        let cm = hand_cm ~mtu:1000 engine a in
        (a, b, fwd, rev, fun _ -> cm))
  in
  let dsl_fwd, dsl_rev, dsl_bytes, dsl_cm_counters =
    run (fun engine rng ->
        let net = Build.pipe ~rng engine (Spec.par [ pipe; Spec.cm ~mtu:1000 [ "a" ] ]) in
        let cm = Build.cm net.Build.net "a" in
        (net.Build.a, net.Build.b, net.Build.ab, net.Build.ba, fun _ -> cm))
  in
  Alcotest.(check bool) "fwd link stats" true (hand_fwd = dsl_fwd);
  Alcotest.(check bool) "rev link stats" true (hand_rev = dsl_rev);
  Alcotest.(check int) "delivered bytes" hand_bytes dsl_bytes;
  Alcotest.(check bool) "CM counters" true (hand_cm_counters = dsl_cm_counters);
  Alcotest.(check bool) "the hook charged transmissions" true (hand_cm_counters.Cm.notifies > 0)

(* The stack lookups: one libcm per host, memoized; no CM, no driver. *)
let test_stack_lookups () =
  let net =
    Build.pipe (Eventsim.Engine.create ())
      (Spec.par [ Spec.pipe ~bw:1e6 ~lat:0 (); Spec.cm [ "a" ] ])
  in
  let b = net.Build.net in
  Alcotest.(check bool) "libcm memoized" true (Build.libcm b "a" == Build.libcm b "a");
  Alcotest.(check bool)
    "libcm over the host's CM" true
    (Libcm.cm (Build.libcm b "a") == Build.cm b "a");
  Alcotest.(check bool) "driver on the CM host" true
    (match Build.driver b net.Build.a with
    | Some (Tcp.Conn.Cm_driven cm) -> cm == Build.cm b "a"
    | _ -> false);
  Alcotest.(check bool) "no driver without a CM" true (Build.driver b net.Build.b = None);
  check_invalid "cm on a host without one" (fun () -> Build.cm b "b");
  check_invalid "libcm on a host without one" (fun () -> Build.libcm b "b")

(* ---- parity: Launch ≡ handwritten apps --------------------------------- *)

(* One seeded run of one app a → b on a lossy pipe under a's CM: [make]
   wires the pipe, the CM and the app, and returns both links and a
   reader of the app's counters, read after [duration]. *)
let app_run make =
  Netsim.Packet.reset_ids ();
  let engine = Eventsim.Engine.create () in
  let fwd, rev, read = make engine (Rng.create ~seed:42) in
  Eventsim.Engine.run_for engine (Time.sec 5.);
  (Netsim.Link.stats fwd, Netsim.Link.stats rev, read ())

let hand_app_pipe engine rng =
  let a, b, fwd, rev =
    hand_pipe engine rng ~bw:20e6 ~lat:(Time.ms 10) ~queue:100 ~rev_queue:1000 ~loss:0.01
  in
  (a, b, fwd, rev, hand_cm engine a)

(* The same pipe and CM from a spec, with [app] as one flow group run by
   Launch. *)
let launched_app engine rng app =
  let net =
    Build.pipe ~rng engine
      (Spec.par
         [
           Spec.pipe ~loss:0.01 ~bw:20e6 ~lat:(Time.ms 10) ();
           Spec.cm [ "a" ];
           Spec.flows ~name:"g" ~src:[ "a" ] ~dst:"b" ~port:7000 ~app ();
         ])
  in
  let running = Cm_spec.Launch.run net.Build.net () in
  (net, Cm_spec.Launch.find running "g")

let check_app_parity what (hand_fwd, hand_rev, hand) (dsl_fwd, dsl_rev, dsl) =
  Alcotest.(check bool) (what ^ ": fwd link stats") true (hand_fwd = dsl_fwd);
  Alcotest.(check bool) (what ^ ": rev link stats") true (hand_rev = dsl_rev);
  Alcotest.(check bool) (what ^ ": app counters") true (hand = dsl)

(* A datagram group ≡ a CC-UDP socket and echo receiver wired by hand,
   filled to 64 queued datagrams at once and every 50 ms after: Launch
   must honour the refill period (at 20 Mbit/s the socket drains 64
   datagrams in well under 50 ms, so the period sets the pace). *)
let test_datagram_parity () =
  let dst = Netsim.Addr.endpoint ~host:1 ~port:7000 in
  let hand =
    app_run (fun engine rng ->
        let a, b, fwd, rev, cm = hand_app_pipe engine rng in
        let _echo = Udp.Cc_socket.run_echo_receiver b ~port:7000 () in
        let sock = Udp.Cc_socket.create a ~cm ~dst () in
        let fill () =
          for _ = 1 to 64 - Udp.Cc_socket.queued sock do
            Udp.Cc_socket.send sock 1000
          done
        in
        fill ();
        Eventsim.Timer.start_periodic (Eventsim.Timer.create engine ~callback:fill) (Time.ms 50);
        ( fwd,
          rev,
          fun () ->
            (Udp.Cc_socket.bytes_sent sock, Udp.Cc_socket.packets_sent sock, Cm.counters cm) ))
  in
  let dsl =
    app_run (fun engine rng ->
        let net, g = launched_app engine rng (Spec.datagram ~refill:(Time.ms 50)) in
        let sock = (Cm_spec.Launch.datagrams g 0).Cm_spec.Launch.socket in
        let cm = Build.cm net.Build.net "a" in
        ( net.Build.ab,
          net.Build.ba,
          fun () ->
            (Udp.Cc_socket.bytes_sent sock, Udp.Cc_socket.packets_sent sock, Cm.counters cm) ))
  in
  check_app_parity "datagram" hand dsl;
  let _, _, (bytes, _, _) = hand in
  Alcotest.(check bool) "traffic flowed" true (bytes > 1_000_000)

(* A cmproto group ≡ agents and a session wired by hand: acknowledgment
   every packet, a 16-packet window pumped every 2 ms, 3000 packets of
   500 B, a 32-packet session queue.  The agents' defense counters show
   a dropped [ack_every]; the bytes sent show a dropped pump, window or
   bound. *)
let test_cmproto_parity () =
  let window = 16 and packets = 3000 and packet_bytes = 500 in
  let read session agent () =
    ( Cmproto.Session.bytes_sent session,
      Cmproto.Session.packets_sent session,
      Cmproto.Sender_agent.counters agent )
  in
  let hand =
    app_run (fun engine rng ->
        let a, b, fwd, rev, cm = hand_app_pipe engine rng in
        let agent = Cmproto.Sender_agent.install a cm in
        let _receiver = Cmproto.Receiver_agent.install b ~ack_every:1 () in
        let session =
          Cmproto.Session.create agent ~host:a ~cm
            ~dst:(Netsim.Addr.endpoint ~host:1 ~port:7000)
            ~queue_limit_pkts:(2 * window) ()
        in
        let fed = ref 0 in
        let fill () =
          while !fed < packets && Cmproto.Session.queued session < window do
            incr fed;
            Cmproto.Session.send session packet_bytes
          done
        in
        Eventsim.Timer.start_periodic (Eventsim.Timer.create engine ~callback:fill) (Time.ms 2);
        (fwd, rev, read session agent))
  in
  let dsl =
    app_run (fun engine rng ->
        let net, g =
          launched_app engine rng
            (Spec.cmproto_session ~packet_bytes ~window ~ack_every:1 ~pump:(Time.ms 2) ~packets ())
        in
        let { Cm_spec.Launch.session; agent; _ } = Cm_spec.Launch.session g 0 in
        (net.Build.ab, net.Build.ba, read session agent))
  in
  check_app_parity "cmproto" hand dsl;
  let _, _, (_, sent, counters) = hand in
  Alcotest.(check int) "the bound held" packets sent;
  Alcotest.(check bool) "feedback flowed" true
    (counters.Cmproto.Sender_agent.feedback_received > 1000)

(* A bulk group ≡ a TCP/CM transfer wired by hand from listen, connect,
   send and close, run to completion (FIN included): the same link
   traffic, bytes and per-delivery (time, bytes) sequence, the last
   read from the transfer's observer. *)
let test_bulk_parity () =
  let bytes = 128 * 8192 in
  let deliveries engine log n = log := (Eventsim.Engine.now engine, n) :: !log in
  let hand =
    app_run (fun engine rng ->
        let a, b, fwd, rev, cm = hand_app_pipe engine rng in
        let delivered = ref 0 and log = ref [] in
        let _listener =
          Tcp.Conn.listen b ~port:7000
            ~on_accept:(fun conn ->
              Tcp.Conn.on_receive conn (fun n ->
                  delivered := !delivered + n;
                  deliveries engine log n))
            ()
        in
        let conn =
          Tcp.Conn.connect a
            ~dst:(Netsim.Addr.endpoint ~host:1 ~port:7000)
            ~driver:(Tcp.Conn.Cm_driven cm) ()
        in
        Tcp.Conn.send conn bytes;
        Tcp.Conn.close conn;
        (fwd, rev, fun () -> (!delivered, List.rev !log)))
  in
  let dsl =
    app_run (fun engine rng ->
        let net, g = launched_app engine rng (Spec.bulk ~bytes) in
        let transfer = Cm_spec.Launch.transfer g 0 and log = ref [] in
        Cm_apps.Bulk.observe transfer (deliveries engine log);
        ( net.Build.ab,
          net.Build.ba,
          fun () -> (transfer.Cm_apps.Bulk.delivered, List.rev !log) ))
  in
  check_app_parity "bulk" hand dsl;
  let fwd, _, (delivered, log) = dsl in
  Alcotest.(check int) "transfer finished" bytes delivered;
  Alcotest.(check bool) "many deliveries" true (List.length log > 100);
  Alcotest.(check bool) "forward loss drew drops" true (fwd.Netsim.Link.channel_drops > 0)

(* The stock-TCP baseline: launched with [~driver_for:(fun _ -> None)],
   a bulk group on a CM host leaves the CM alone; by default it runs
   over it. *)
let test_bulk_baseline () =
  let opens driver_for =
    let engine = Eventsim.Engine.create () in
    let net =
      Build.pipe engine
        Spec.(
          pipe ~bw:10e6 ~lat:(Time.ms 5) ()
          @ cm [ "a" ]
          @ flows ~name:"g" ~src:[ "a" ] ~dst:"b" ~port:7000 ~app:(bulk ~bytes:65_536) ())
    in
    let g = Cm_spec.Launch.find (Cm_spec.Launch.run net.Build.net ?driver_for ()) "g" in
    Eventsim.Engine.run_for engine (Time.sec 5.);
    Alcotest.(check int) "transfer finished" 1 (Cm_spec.Launch.done_count g);
    (Cm.counters (Build.cm net.Build.net "a")).Cm.opens
  in
  Alcotest.(check int) "stock TCP opens no CM flow" 0 (opens (Some (fun _ -> None)));
  Alcotest.(check int) "the spec's stack opens one" 1 (opens None)

(* Two datagram groups share one refill timer: stopping one stops only
   its refills (its queue drains within a backlog) while the other keeps
   sending, until it is stopped too. *)
let test_launch_stop () =
  let engine = Eventsim.Engine.create () in
  let group name port =
    Spec.flows ~name ~src:[ "a" ] ~dst:"b" ~port ~app:(Spec.datagram ~refill:(Time.ms 20)) ()
  in
  let net =
    Build.pipe engine
      Spec.(pipe ~bw:20e6 ~lat:(Time.ms 5) () @ cm [ "a" ] @ group "g1" 7000 @ group "g2" 7001)
  in
  let running = Cm_spec.Launch.run net.Build.net () in
  let g1 = Cm_spec.Launch.find running "g1" and g2 = Cm_spec.Launch.find running "g2" in
  let sent g = Udp.Cc_socket.packets_sent (Cm_spec.Launch.datagrams g 0).Cm_spec.Launch.socket in
  Eventsim.Engine.run_for engine (Time.sec 1.);
  Cm_spec.Launch.stop g1;
  let s1 = sent g1 and s2 = sent g2 in
  Eventsim.Engine.run_for engine (Time.sec 2.);
  Alcotest.(check bool) "g1 sends at most its queued backlog" true (sent g1 - s1 <= 64);
  Alcotest.(check bool) "g2 keeps sending" true (sent g2 - s2 > 1000);
  Cm_spec.Launch.stop g2;
  let s2 = sent g2 in
  Eventsim.Engine.run_for engine (Time.sec 2.);
  Alcotest.(check bool) "g2 drains and stops" true (sent g2 - s2 <= 64)

(* ---- topology: built networks carry packets ---------------------------- *)

let udp_pkt ~src ~dst =
  Netsim.Packet.make ~now:0
    ~flow:
      (Netsim.Addr.flow
         ~src:(Netsim.Addr.endpoint ~host:src ~port:80)
         ~dst:(Netsim.Addr.endpoint ~host:dst ~port:80)
         ~proto:Netsim.Addr.Udp ())
    ~payload_bytes:1000 (Netsim.Packet.Raw 1000)

let test_pipe_roundtrip () =
  let e = Eventsim.Engine.create () in
  let net = Build.pipe e (Spec.pipe ~bw:1e7 ~lat:(Time.ms 5) ()) in
  let got_b = ref false and got_a = ref false in
  Netsim.Host.bind net.Build.b Netsim.Addr.Udp ~port:80 (fun _ -> got_b := true);
  Netsim.Host.bind net.Build.a Netsim.Addr.Udp ~port:80 (fun _ -> got_a := true);
  Netsim.Host.ip_output net.Build.a (udp_pkt ~src:0 ~dst:1);
  Netsim.Host.ip_output net.Build.b (udp_pkt ~src:1 ~dst:0);
  Eventsim.Engine.run e;
  Alcotest.(check bool) "a -> b delivered" true !got_b;
  Alcotest.(check bool) "b -> a delivered" true !got_a

(* Clients behind one access router and a shared trunk: every client ↔
   server packet arrives. *)
let test_star_connectivity () =
  let e = Eventsim.Engine.create () in
  let net =
    Build.instantiate e
      (Check.elaborate_exn
         Spec.(
           node "server"
           @ clients ~n:3 ~per:[ "server" ] ~bw:1e8 ~lat:(Time.ms 1) ~trunk_bw:1e7
               ~trunk_lat:(Time.ms 10) ()))
  in
  let server = Build.host net "server" in
  let clients = List.map (Build.host net) (Spec.client_names ~n:3 ~servers:[ "server" ] ()) in
  let server_got = ref 0 in
  let client_got = Array.make 3 0 in
  Netsim.Host.bind server Netsim.Addr.Udp ~port:80 (fun _ -> incr server_got);
  List.iteri
    (fun i c ->
      Netsim.Host.bind c Netsim.Addr.Udp ~port:80 (fun _ -> client_got.(i) <- client_got.(i) + 1))
    clients;
  (* every client to server, server to every client *)
  List.iteri
    (fun i c ->
      Netsim.Host.ip_output c (udp_pkt ~src:(i + 1) ~dst:0);
      Netsim.Host.ip_output server (udp_pkt ~src:0 ~dst:(i + 1)))
    clients;
  Eventsim.Engine.run e;
  Alcotest.(check int) "server received all" 3 !server_got;
  Alcotest.(check (array int)) "clients each received one" [| 1; 1; 1 |] client_got

(* ---- static checks: one negative test per diagnostic code --------------- *)

let codes spec = List.map (fun d -> d.Check.d_code) (Check.check spec)

let has_code code spec =
  Alcotest.(check bool)
    (Printf.sprintf "diagnoses %s in: %s" code
       (String.concat ", " (codes spec)))
    true
    (List.mem code (codes spec))

let pipe_base =
  Spec.(
    par
      [
        node "a";
        node "b";
        link ~name:"fwd" ~bw:1e6 ~lat:(Time.ms 10) "a" "b";
        link ~name:"rev" ~bw:1e6 ~lat:(Time.ms 10) "b" "a";
      ])

let bulk_group ?(name = "g") ?(port = 80) ?start ?stop () =
  Spec.flows ~name ~src:[ "a" ] ~dst:"b" ~port ~app:(Spec.bulk ~bytes:8192) ?start ?stop ()

let test_clean_base () =
  Alcotest.(check (list string)) "clean" [] (codes (Spec.par [ pipe_base; bulk_group () ]))

let test_dup_name () =
  has_code "dup-name" (Spec.par [ pipe_base; Spec.node "a" ]);
  has_code "dup-name"
    (Spec.par [ pipe_base; Spec.link ~name:"fwd" ~bw:1e6 ~lat:0 "b" "a" ]);
  has_code "dup-name" (Spec.par [ pipe_base; bulk_group (); bulk_group ~port:9000 () ])

let test_dup_address () =
  has_code "dup-address" (Spec.par [ Spec.node "x"; Spec.node ~id:0 "y" ])

let test_bad_address () =
  has_code "bad-address" (Spec.par [ Spec.node ~id:(-1) "x" ])

let test_bad_link_param () =
  has_code "bad-link-param" (Spec.par [ pipe_base; Spec.link ~bw:(-1.) ~lat:0 "a" "b" ]);
  has_code "bad-link-param" (Spec.par [ pipe_base; Spec.link ~bw:Float.nan ~lat:0 "a" "b" ]);
  has_code "bad-link-param" (Spec.par [ pipe_base; Spec.link ~bw:1e6 ~lat:(-1) "a" "b" ]);
  has_code "bad-link-param" (Spec.par [ pipe_base; Spec.link ~queue:0 ~bw:1e6 ~lat:0 "a" "b" ]);
  List.iter
    (fun loss ->
      has_code "bad-link-param" (Spec.par [ pipe_base; Spec.link ~loss ~bw:1e6 ~lat:0 "a" "b" ]))
    [ Float.nan; -0.1; 1.5 ];
  List.iter
    (fun loss ->
      Alcotest.(check (list string))
        (Printf.sprintf "loss %g is clean" loss)
        []
        (codes (Spec.pipe ~loss ~bw:1e6 ~lat:0 ())))
    [ 0.; 1. ]

let test_unknown_node () =
  has_code "unknown-node" (Spec.par [ pipe_base; Spec.link ~bw:1e6 ~lat:0 "a" "ghost" ]);
  has_code "unknown-node"
    (Spec.par [ pipe_base; Spec.flows ~name:"g" ~src:[ "ghost" ] ~dst:"b" ~app:(Spec.bulk ~bytes:1) () ])

let test_self_link () = has_code "self-link" (Spec.par [ pipe_base; Spec.link ~bw:1e6 ~lat:0 "a" "a" ])

let test_multihomed_host () =
  has_code "multihomed-host"
    (Spec.par [ pipe_base; Spec.node "c"; Spec.link ~bw:1e6 ~lat:0 "a" "c" ])

let test_router_endpoint () =
  has_code "router-endpoint"
    (Spec.par
       [
         pipe_base;
         Spec.router "r";
         Spec.link ~bw:1e6 ~lat:0 "b" "r";
         Spec.flows ~name:"g" ~src:[ "a" ] ~dst:"r" ~app:(Spec.bulk ~bytes:1) ();
       ])

let test_empty_group () =
  has_code "empty-group" (Spec.par [ pipe_base; Spec.flows ~name:"g" ~src:[] ~dst:"b" ~app:(Spec.bulk ~bytes:1) () ])

let test_bad_app () =
  let g app = Spec.par [ pipe_base; Spec.flows ~name:"g" ~src:[ "a" ] ~dst:"b" ~app () ] in
  has_code "bad-app" (g (Spec.bulk ~bytes:0));
  has_code "bad-app" (g (Spec.web_fetch ~object_bytes:0 ~count:1 ~gap:0));
  has_code "bad-app" (g (Spec.web_fetch ~object_bytes:1 ~count:0 ~gap:0));
  has_code "bad-app" (g (Spec.layered ~layers:[||] ()));
  has_code "bad-app" (g (Spec.layered ~layers:[| 2e6; 1e6 |] ()));
  has_code "bad-app" (g (Spec.layered ~layers:[| 0. |] ()));
  let session ?(packet_bytes = 1000) ?(window = 32) ?(ack_every = 2) ?(pump = Time.ms 5) ?packets
      () =
    Spec.cmproto_session ~packet_bytes ~window ~ack_every ~pump ?packets ()
  in
  let layered ?batch () = Spec.layered ?batch ~layers:[| 1e5 |] () in
  List.iter
    (fun app -> has_code "bad-app" (g app))
    [
      layered ~batch:(0, Time.sec 2.) ();
      layered ~batch:(500, 0) ();
      Spec.datagram ~refill:0;
      Spec.datagram ~refill:(-1);
      session ~packet_bytes:0 ();
      session ~window:0 ();
      session ~ack_every:0 ();
      session ~pump:0 ();
      session ~packets:0 ();
    ];
  (* their clean twins, from a host with a CM *)
  List.iter
    (fun app ->
      Alcotest.(check (list string)) "clean twin" [] (codes (Spec.par [ g app; Spec.cm [ "a" ] ])))
    [
      layered ~batch:(500, Time.sec 2.) ();
      Spec.datagram ~refill:(Time.ms 20);
      session ();
      session ~packets:20_000 ();
    ]

let test_bad_time () =
  has_code "bad-time" (Spec.par [ pipe_base; bulk_group ~start:(Time.sec (-1.)) () ]);
  has_code "bad-time"
    (Spec.par [ pipe_base; bulk_group ~start:(Time.sec 2.) ~stop:(Time.sec 1.) () ]);
  has_code "bad-time"
    (Spec.par [ pipe_base; Spec.faults ~target:"fwd" [ (Time.sec (-1.), Scenario.Outage (Time.sec 1.)) ] ])

let test_unknown_target () =
  has_code "unknown-target"
    (Spec.par [ pipe_base; Spec.faults ~target:"ghost" [ (Time.sec 1., Scenario.Outage (Time.sec 1.)) ] ])

let test_bad_fault () =
  has_code "bad-fault"
    (Spec.par [ pipe_base; Spec.faults ~target:"fwd" [ (Time.sec 1., Scenario.Set_bandwidth (-5.)) ] ])

let test_fault_overlap () =
  has_code "fault-overlap"
    (Spec.par
       [
         pipe_base;
         Spec.faults ~target:"fwd"
           [
             (Time.sec 1., Scenario.Outage (Time.sec 5.));
             (Time.sec 3., Scenario.Outage (Time.sec 1.));
           ];
       ]);
  (* same windows on different links: fine *)
  Alcotest.(check (list string))
    "no overlap across links" []
    (codes
       (Spec.par
          [
            pipe_base;
            Spec.faults ~target:"fwd" [ (Time.sec 1., Scenario.Outage (Time.sec 5.)) ];
            Spec.faults ~target:"rev" [ (Time.sec 3., Scenario.Outage (Time.sec 1.)) ];
          ]))

let control_fault_on target =
  Spec.faults ~target
    [
      ( Time.sec 1.,
        Scenario.Control_fault
          {
            profile = { Cm_dynamics.Control_faults.drop = 0.5; dup = 0.1; delay = 0; jitter = 0 };
            duration = Time.sec 2.;
          } );
    ]

let test_control_target () =
  (* control-plane injectors live on hosts: a router or an undeclared
     name is a dedicated diagnostic, and a host target is clean *)
  has_code "control-target"
    (Spec.par
       [
         Spec.node "a";
         Spec.node "b";
         Spec.router "r";
         Spec.duplex ~bw:1e6 ~lat:0 "a" "r";
         Spec.duplex ~bw:1e6 ~lat:0 "r" "b";
         control_fault_on "r";
       ]);
  has_code "control-target" (Spec.par [ pipe_base; control_fault_on "ghost" ]);
  has_code "control-target" (Spec.par [ pipe_base; control_fault_on "fwd" ]);
  Alcotest.(check (list string))
    "host-targeted control fault is clean" []
    (codes (Spec.par [ pipe_base; bulk_group (); control_fault_on "a" ]))

let test_unreachable () =
  (* c—d island, no path to/from b *)
  has_code "unreachable"
    (Spec.par
       [
         pipe_base;
         Spec.node "c";
         Spec.node "d";
         Spec.duplex ~bw:1e6 ~lat:0 "c" "d";
         Spec.flows ~name:"g" ~src:[ "c" ] ~dst:"b" ~app:(Spec.bulk ~bytes:1) ();
       ]);
  (* one-way connectivity is not enough: feedback path missing *)
  has_code "unreachable"
    (Spec.par
       [
         Spec.node "a";
         Spec.node "b";
         Spec.link ~bw:1e6 ~lat:0 "a" "b";
         Spec.flows ~name:"g" ~src:[ "a" ] ~dst:"b" ~app:(Spec.bulk ~bytes:1) ();
       ])

let test_port_clash () =
  has_code "port-clash"
    (Spec.par
       [
         pipe_base;
         Spec.flows ~name:"g1" ~src:[ "a" ] ~dst:"b" ~port:80 ~app:(Spec.bulk ~bytes:1) ();
         Spec.flows ~name:"g2" ~src:[ "a" ] ~dst:"b" ~port:80
           ~app:(Spec.web_fetch ~object_bytes:1 ~count:1 ~gap:0)
           ();
       ])

let test_server_conflict () =
  let fetch ~name bytes =
    Spec.flows ~name ~src:[ "a" ] ~dst:"b" ~port:80
      ~app:(Spec.web_fetch ~object_bytes:bytes ~count:1 ~gap:0)
      ()
  in
  has_code "server-conflict" (Spec.par [ pipe_base; fetch ~name:"g1" 100; fetch ~name:"g2" 200 ]);
  (* same object size: a legitimately shared server *)
  Alcotest.(check (list string))
    "shared server ok" []
    (codes (Spec.par [ pipe_base; fetch ~name:"g1" 100; fetch ~name:"g2" 100 ]))

let test_bad_stack () =
  has_code "bad-stack" (Spec.par [ pipe_base; Spec.cm [ "ghost" ] ]);
  has_code "bad-stack"
    (Spec.par [ pipe_base; Spec.router "r"; Spec.link ~bw:1e6 ~lat:0 "b" "r"; Spec.cm [ "r" ] ]);
  has_code "bad-stack" (Spec.par [ pipe_base; Spec.cm [ "a" ]; Spec.cm ~mtu:1000 [ "a" ] ]);
  List.iter
    (fun mtu -> has_code "bad-stack" (Spec.par [ pipe_base; Spec.cm ~mtu [ "a" ] ]))
    [ 0; -1 ];
  Alcotest.(check (list string))
    "a CM on each host is clean" []
    (codes (Spec.par [ pipe_base; bulk_group (); Spec.cm ~mtu:1 [ "a"; "b" ] ]))

let test_needs_cm () =
  List.iter
    (fun app ->
      let g = Spec.flows ~name:"s" ~src:[ "a" ] ~dst:"b" ~port:5004 ~app () in
      has_code "needs-cm" (Spec.par [ pipe_base; g ]);
      has_code "needs-cm" (Spec.par [ pipe_base; g; Spec.cm [ "b" ] ]);
      Alcotest.(check (list string))
        "CM-driven source with a CM is clean" []
        (codes (Spec.par [ pipe_base; g; Spec.cm [ "a" ] ])))
    [
      Spec.layered ~layers:[| 1e5; 2e5 |] ();
      Spec.datagram ~refill:(Time.ms 50);
      Spec.cmproto_session ~packet_bytes:168 ~window:32 ~ack_every:1 ~pump:(Time.us 200) ();
    ]

let test_ack_conflict () =
  let session ~name ~port ack_every =
    Spec.flows ~name ~src:[ "a" ] ~dst:"b" ~port
      ~app:(Spec.cmproto_session ~packet_bytes:1000 ~window:64 ~ack_every ~pump:(Time.ms 2) ())
      ()
  in
  let pair ack_every' =
    Spec.par
      [
        pipe_base;
        Spec.cm [ "a" ];
        session ~name:"g1" ~port:7000 2;
        session ~name:"g2" ~port:7001 ack_every';
      ]
  in
  has_code "ack-conflict" (pair 1);
  (* one receiver agent, one interval: fine *)
  Alcotest.(check (list string)) "agreeing sessions are clean" [] (codes (pair 2))

(* --dump names every app class with its fields *)
let test_summary_apps () =
  let apps =
    [
      ( "layered",
        Spec.layered ~batch:(500, Time.sec 2.) ~layers:[| 1e5; 2e5 |] (),
        "layered:2 layers <=200000 bps batch=500/2s" );
      ("datagram", Spec.datagram ~refill:(Time.ms 50), "datagram:1000B x64 refill=0.05s");
      ( "cmproto",
        Spec.cmproto_session ~packet_bytes:168 ~window:32 ~ack_every:1 ~pump:(Time.us 200)
          ~packets:20_000 (),
        "cmproto:168B window=32 ack_every=1 pump=0.0002s x20000" );
    ]
  in
  let ir =
    Check.elaborate_exn
      (Spec.par
         (pipe_base :: Spec.cm [ "a" ]
         :: List.mapi
              (fun i (name, app, _) ->
                Spec.flows ~name ~src:[ "a" ] ~dst:"b" ~port:(5000 + (10 * i)) ~app ())
              apps))
  in
  match Check.summary_json ir with
  | Cm_util.Json.Obj fields -> (
      match List.assoc "groups" fields with
      | Cm_util.Json.List groups ->
          List.iter2
            (fun (name, _, want) g ->
              match g with
              | Cm_util.Json.Obj gf ->
                  Alcotest.(check bool) (name ^ " app string") true
                    (List.assoc "app" gf = Cm_util.Json.Str want)
              | _ -> Alcotest.fail "group is not an object")
            apps groups
      | _ -> Alcotest.fail "no groups list")
  | _ -> Alcotest.fail "summary is not an object"

let test_oversubscribed () =
  has_code "oversubscribed"
    (Spec.par
       [
         pipe_base;
         Spec.flows ~name:"g" ~src:[ "a" ] ~dst:"b" ~port:5004
           ~app:(Spec.layered ~layers:[| 2e6; 4e6 |] ())
           ();
       ])

(* ---- routing: one next-hop table, never through a host ------------------ *)

(* Test-only reference for the next-hop table, one BFS per destination:
   hop distance of every node to [dst] over reversed edges, expanding
   only through routers and [dst] (hosts do not forward). *)
let ref_dist_to (ir : Check.ir) ~dst =
  let n = Array.length ir.Check.ir_nodes in
  let dist = Array.make n max_int in
  let in_edges = Array.make n [] in
  Array.iteri
    (fun ei e -> in_edges.(e.Check.e_dst) <- ei :: in_edges.(e.Check.e_dst))
    ir.Check.ir_edges;
  let q = Queue.create () in
  dist.(dst) <- 0;
  Queue.push dst q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    if v = dst || ir.Check.ir_nodes.(v).Check.n_kind = Spec.Router then
      List.iter
        (fun ei ->
          let u = ir.Check.ir_edges.(ei).Check.e_src in
          if dist.(u) = max_int then begin
            dist.(u) <- dist.(v) + 1;
            Queue.push u q
          end)
        in_edges.(v)
  done;
  dist

(* The reference next hop: the first declared out-edge of [u] to a router
   or to [dst] itself that steps one hop closer. *)
let ref_next_hop (ir : Check.ir) dist ~dst u =
  if dist.(u) = max_int || dist.(u) = 0 then None
  else
    List.find_opt
      (fun ei ->
        let v = ir.Check.ir_edges.(ei).Check.e_dst in
        (v = dst || ir.Check.ir_nodes.(v).Check.n_kind = Spec.Router) && dist.(v) = dist.(u) - 1)
      ir.Check.ir_out.(u)

let node_idx (ir : Check.ir) name =
  let rec find i = if ir.Check.ir_nodes.(i).Check.n_name = name then i else find (i + 1) in
  find 0

let edge_names (ir : Check.ir) path = List.map (fun ei -> ir.Check.ir_edges.(ei).Check.e_name) path

(* A one-way router→host link declared first: host [x] and router [r2]
   are both two hops from [d], but only [r2] forwards.  A next-hop rule
   that admits hosts sends every s→d packet into [x], which drops it. *)
let detour_spec =
  let bw = 10e6 and lat = Time.ms 5 in
  Spec.(
    par
      [
        router "u";
        router "r1";
        router "r2";
        node "s";
        node "d";
        node "x";
        link ~bw ~lat "u" "x";
        duplex ~bw ~lat "s" "u";
        duplex ~bw ~lat "u" "r2";
        duplex ~bw ~lat "r2" "r1";
        duplex ~bw ~lat "r1" "d";
        duplex ~bw ~lat "x" "r1";
        flows ~name:"g" ~src:[ "s" ] ~dst:"d" ~port:80 ~app:(bulk ~bytes:10_000) ();
      ])

let test_no_host_next_hop () =
  Alcotest.(check (list string)) "checks clean" [] (codes detour_spec);
  let ir = Check.elaborate_exn detour_spec in
  Alcotest.(check (option (list string)))
    "s->d routes through r2, not host x"
    (Some [ "s->u"; "u->r2"; "r2->r1"; "r1->d" ])
    (Option.map (edge_names ir) (Check.route ir ~src:(node_idx ir "s") ~dst:(node_idx ir "d")));
  let engine = Eventsim.Engine.create () in
  let b = Build.instantiate ~rng:(Rng.create ~seed:42) engine ir in
  let running = Cm_spec.Launch.run b ~driver_for:(fun _ -> None) () in
  Eventsim.Engine.run ~until:(Time.sec 30.) engine;
  Alcotest.(check int) "10 kB transfer s->d finishes" 1
    (Cm_spec.Launch.done_count (Cm_spec.Launch.find running "g"))

(* Random router graphs: one-way and duplex router links, single-homed
   hosts with one-way router→host down-links (possibly none, so some
   hosts are unreachable), all links declared in a random order. *)
let gen_router_graph =
  QCheck.Gen.(
    let* nr = int_range 2 8 in
    let* nh = int_range 1 6 in
    let router = int_bound (nr - 1) in
    let* rlinks = list_size (int_range 1 (2 * nr)) (triple router router bool) in
    let* homes = list_repeat nh router in
    let* downs = list_repeat nh (list_size (int_range 0 2) router) in
    let r i = Printf.sprintf "r%d" i and h i = Printf.sprintf "h%d" i in
    let links =
      List.concat_map
        (fun (a, b, duplex) ->
          if a = b then [] else if duplex then [ (r a, r b); (r b, r a) ] else [ (r a, r b) ])
        rlinks
      @ List.mapi (fun i a -> (h i, r a)) homes
      @ List.concat (List.mapi (fun i rs -> List.map (fun a -> (r a, h i)) rs) downs)
    in
    let* links = shuffle_l links in
    return (nr, nh, links))

let router_graph_spec (nr, nh, links) =
  Spec.(
    par
      [
        par (List.init nr (fun i -> router (Printf.sprintf "r%d" i)));
        par (List.init nh (fun i -> node (Printf.sprintf "h%d" i)));
        par
          (List.mapi (fun i (a, b) -> link ~name:("l" ^ string_of_int i) ~bw:1e6 ~lat:0 a b) links);
      ])

let print_router_graph (nr, nh, links) =
  Printf.sprintf "%d routers, %d hosts, links %s" nr nh
    (String.concat " " (List.map (fun (a, b) -> a ^ "->" ^ b) links))

let prop_next_hop_table =
  QCheck.Test.make ~count:300
    ~name:"next-hop table = per-destination reference, never through a host"
    (QCheck.make ~print:print_router_graph
       ~shrink:(fun (nr, nh, links) ->
         QCheck.Iter.map (fun links -> (nr, nh, links)) (QCheck.Shrink.list links))
       gen_router_graph) (fun g ->
      let ir = Check.elaborate_exn (router_graph_spec g) in
      let nodes = ir.Check.ir_nodes in
      Array.iteri
        (fun dst (dn : Check.node) ->
          if dn.Check.n_kind = Spec.Host then begin
            let dist = ref_dist_to ir ~dst in
            Array.iteri
              (fun u (un : Check.node) ->
                let got = Check.next_hop ir u ~dst in
                if got <> ref_next_hop ir dist ~dst u then
                  QCheck.Test.fail_reportf "%s -> %s: next hop differs from the reference"
                    un.Check.n_name dn.Check.n_name;
                match got with
                | Some ei ->
                    let v = ir.Check.ir_edges.(ei).Check.e_dst in
                    if v <> dst && nodes.(v).Check.n_kind = Spec.Host then
                      QCheck.Test.fail_reportf "%s -> %s: next hop is host %s" un.Check.n_name
                        dn.Check.n_name nodes.(v).Check.n_name
                | None -> ())
              nodes
          end)
        nodes;
      true)

(* Route agreement: one data packet per group, each way, must be
   delivered by exactly the links of Check.route's path (a router that
   lacked a route would leave the rest of the path unused). *)
let check_route_agreement what spec =
  let ir = Check.elaborate_exn spec in
  let engine = Eventsim.Engine.create () in
  let b = Build.instantiate engine ir in
  let delivered () =
    Array.map (fun l -> (Netsim.Link.stats l).Netsim.Link.delivered_pkts) b.Build.links
  in
  let send ~src ~dst =
    let addr i = ir.Check.ir_nodes.(i).Check.n_addr in
    let host = Build.host b ir.Check.ir_nodes.(src).Check.n_name in
    let flow =
      Netsim.Addr.flow
        ~src:(Netsim.Addr.endpoint ~host:(addr src) ~port:9)
        ~dst:(Netsim.Addr.endpoint ~host:(addr dst) ~port:9)
        ~proto:Netsim.Addr.Udp ()
    in
    let before = delivered () in
    Netsim.Host.ip_output host
      (Netsim.Packet.make ~now:(Eventsim.Engine.now engine) ~flow ~payload_bytes:1000
         (Netsim.Packet.Raw 1000));
    Eventsim.Engine.run engine;
    let after = delivered () in
    let used =
      List.filter (fun ei -> after.(ei) <> before.(ei)) (List.init (Array.length after) Fun.id)
    in
    let name i = ir.Check.ir_nodes.(i).Check.n_name in
    match Check.route ir ~src ~dst with
    | None -> Alcotest.failf "%s: %s -> %s has no route" what (name src) (name dst)
    | Some path ->
        Alcotest.(check (list string))
          (Printf.sprintf "%s: %s -> %s delivered on the route's links" what (name src) (name dst))
          (List.sort compare (edge_names ir path))
          (List.sort compare (edge_names ir used));
        List.iter
          (fun ei -> Alcotest.(check int) "one delivery per link" 1 (after.(ei) - before.(ei)))
          used
  in
  Array.iter
    (fun (g : Check.group) ->
      send ~src:g.Check.g_srcs.(0) ~dst:g.Check.g_dst;
      send ~src:g.Check.g_dst ~dst:g.Check.g_srcs.(0))
    ir.Check.ir_groups

let test_route_agreement () =
  check_route_agreement "detour" detour_spec;
  (* fat tree: every host sends to a host in the next pod and to its
     neighbour in the same edge switch *)
  let hosts = Array.of_list (Spec.fat_tree_hosts ~k:4) in
  let n = Array.length hosts in
  let groups =
    List.concat
      (List.init n (fun i ->
           List.mapi
             (fun k j ->
               Spec.flows
                 ~name:(Printf.sprintf "g%d_%d" i k)
                 ~src:[ hosts.(i) ] ~dst:hosts.(j) ~port:(1000 + (2 * i) + k)
                 ~app:(Spec.bulk ~bytes:1000) ())
             [ (i + 4) mod n; i lxor 1 ]))
  in
  check_route_agreement "fat_tree k=4" (Spec.par (Spec.fat_tree ~k:4 () :: groups))

(* ---- sugar: structural expectations ------------------------------------- *)

let count pred spec = List.length (List.filter pred spec)
let is_node = function Spec.Node { kind = Spec.Host; _ } -> true | _ -> false
let is_router = function Spec.Node { kind = Spec.Router; _ } -> true | _ -> false
let is_link = function Spec.Link _ -> true | _ -> false

let test_fat_tree_shape () =
  let ft = Spec.fat_tree ~k:4 () in
  Alcotest.(check int) "hosts" 16 (count is_node ft);
  Alcotest.(check int) "routers" 20 (count is_router ft);
  (* 16 host links + 16 edge-agg + 16 agg-core adjacencies, duplex *)
  Alcotest.(check int) "links" 96 (count is_link ft);
  Alcotest.(check (list string)) "checks clean" [] (codes ft);
  let ir = Check.elaborate_exn ft in
  (* any-to-any: every host routes to every other *)
  let hosts =
    Array.to_list ir.Check.ir_nodes
    |> List.mapi (fun i n -> (i, n))
    |> List.filter (fun (_, n) -> n.Check.n_kind = Spec.Host)
    |> List.map fst
  in
  List.iter
    (fun dst ->
      List.iter
        (fun src ->
          if src <> dst then
            Alcotest.(check bool)
              (Printf.sprintf "route %d->%d" src dst)
              true
              (Check.route ir ~src ~dst <> None))
        hosts)
    hosts;
  Alcotest.check_raises "odd k rejected"
    (Invalid_argument "Spec.fat_tree: k must be a positive even number (got 3)") (fun () ->
      ignore (Spec.fat_tree ~k:3 ()))

let test_clients_shape () =
  let sp =
    Spec.(
      par
        [
          node "s0";
          node "s1";
          clients ~n:3 ~per:[ "s0"; "s1" ] ~bw:4e6 ~lat:(Time.ms 5) ~trunk_bw:100e6
            ~trunk_lat:(Time.ms 1) ();
        ])
  in
  Alcotest.(check int) "hosts" 8 (count is_node sp);
  Alcotest.(check int) "routers" 2 (count is_router sp);
  Alcotest.(check int) "links" 16 (count is_link sp);
  Alcotest.(check (list string)) "checks clean" [] (codes sp);
  Alcotest.(check (list string))
    "client names" [ "c0_0"; "c0_1"; "c0_2"; "c1_0"; "c1_1"; "c1_2" ]
    (Spec.client_names ~n:3 ~servers:[ "s0"; "s1" ] ())

let test_seq_offsets () =
  let sp =
    Spec.(
      seq
        [
          ("warm", Time.sec 5., faults ~target:"fwd" [ (Time.sec 1., Scenario.Set_bandwidth 1e6) ]);
          ("blip", Time.sec 5., faults ~target:"fwd" [ (Time.sec 2., Scenario.Outage (Time.sec 1.)) ]);
        ])
  in
  let ats =
    List.filter_map (function Spec.Fault { at; span; _ } -> Some (at, span) | _ -> None) sp
  in
  match ats with
  | [ (t1, sp1); (t2, sp2) ] ->
      Alcotest.(check int) "phase 1 unshifted" (Time.sec 1.) t1;
      Alcotest.(check int) "phase 2 shifted by phase 1 duration" (Time.sec 7.) t2;
      Alcotest.(check bool) "phase name in span" true (List.mem "warm" sp1);
      Alcotest.(check bool) "phase name in span" true (List.mem "blip" sp2)
  | _ -> Alcotest.fail "expected two fault elements"

let test_span_in_diag () =
  let sp = Spec.named "outer" (Spec.link ~name:"l" ~bw:(-1.) ~lat:0 "x" "y") in
  match Check.check sp with
  | [] -> Alcotest.fail "expected diagnostics"
  | ds ->
      List.iter
        (fun d ->
          Alcotest.(check bool)
            (Printf.sprintf "span %S carries context" (Spec.span_str d.Check.d_span))
            true
            (String.length (Spec.span_str d.Check.d_span) > 0
            && List.mem "outer" d.Check.d_span))
        ds

(* ---- property: random well-formed specs check clean and compile --------- *)

(* Generator: a random dumbbell — n_l hosts and n_r hosts bridged by two
   routers — with random positive parameters, a bulk group left→right,
   and a non-overlapping fault schedule on the bottleneck.  Well-formed
   by construction, so the checker must accept it and the builder must
   instantiate it. *)
let gen_wellformed =
  QCheck.Gen.(
    let* n_l = int_range 1 4 in
    let* n_r = int_range 1 4 in
    let* bw_mbps = int_range 1 100 in
    let* lat_ms = int_range 0 50 in
    let* queue = int_range 1 200 in
    let* bytes = int_range 1 100_000 in
    let* port = int_range 1 60_000 in
    let* stagger_ms = int_range 0 100 in
    let* outage_gap_s = int_range 3 10 in
    let* n_faults = int_range 0 3 in
    return
      (let lhosts = List.init n_l (Printf.sprintf "l%d") in
       let rhosts = List.init n_r (Printf.sprintf "r%d") in
       let bw = float_of_int bw_mbps *. 1e6 in
       let lat = Time.ms lat_ms in
       Spec.(
         par
           [
             par (List.map node lhosts);
             par (List.map node rhosts);
             router "x";
             router "y";
             par (List.map (fun h -> duplex ~queue ~bw ~lat h "x") lhosts);
             duplex ~name:"bottleneck" ~queue ~bw ~lat "x" "y";
             par (List.map (fun h -> duplex ~queue ~bw ~lat "y" h) rhosts);
             flows ~name:"xfer" ~src:lhosts ~dst:(List.hd rhosts) ~port
               ~app:(bulk ~bytes) ~stagger:(Time.ms stagger_ms) ();
             faults ~target:"bottleneck"
               (List.init n_faults (fun i ->
                    ( Time.sec (float_of_int (1 + (i * outage_gap_s))),
                      Scenario.Outage (Time.sec 1.) )));
           ])))

let prop_wellformed_compiles =
  QCheck.Test.make ~count:60 ~name:"random well-formed specs check clean and compile"
    (QCheck.make gen_wellformed) (fun spec ->
      match Check.elaborate spec with
      | Error ds ->
          QCheck.Test.fail_reportf "diagnostics on well-formed spec: %s"
            (String.concat "; " (List.map Check.diag_str ds))
      | Ok ir ->
          let engine = Eventsim.Engine.create () in
          let rng = Rng.create ~seed:7 in
          let b = Build.instantiate ~rng engine ir in
          let sc = Build.scenario ~name:"p" ir in
          Scenario.compile engine ~rng ~links:(Build.links_alist b) sc;
          Array.length b.Build.links = Array.length ir.Check.ir_edges)

(* Same shape with the control-fault kind attached to a host: any such
   spec that elaborates must also build (injector installed via
   Build.control_injectors) and run to completion with the auditor
   clean. *)
let gen_ctrl_spec =
  QCheck.Gen.(
    let* n_l = int_range 1 3 in
    let* bw_mbps = int_range 2 50 in
    let* lat_ms = int_range 1 30 in
    let* queue = int_range 5 100 in
    let* bytes = int_range 1_000 60_000 in
    let* drop10 = int_range 0 10 in
    let* dup10 = int_range 0 5 in
    let* jitter_ms = int_range 0 20 in
    let* at_s = int_range 1 3 in
    let* dur_s = int_range 1 3 in
    return
      (let lhosts = List.init n_l (Printf.sprintf "l%d") in
       let bw = float_of_int bw_mbps *. 1e6 in
       let lat = Time.ms lat_ms in
       Spec.(
         par
           [
             par (List.map node lhosts);
             node "r0";
             router "x";
             router "y";
             par (List.map (fun h -> duplex ~queue ~bw ~lat h "x") lhosts);
             duplex ~name:"bottleneck" ~queue ~bw ~lat "x" "y";
             duplex ~queue ~bw ~lat "y" "r0";
             flows ~name:"xfer" ~src:lhosts ~dst:"r0" ~port:5000 ~app:(bulk ~bytes)
               ~stagger:(Time.ms 20) ();
             faults ~target:"l0"
               [
                 ( Time.sec (float_of_int at_s),
                   Scenario.Control_fault
                     {
                       profile =
                         {
                           Cm_dynamics.Control_faults.drop = float_of_int drop10 /. 10.;
                           dup = float_of_int dup10 /. 10.;
                           delay = 0;
                           jitter = Time.ms jitter_ms;
                         };
                       duration = Time.sec (float_of_int dur_s);
                     } );
               ];
           ])))

let prop_ctrl_fault_runs =
  QCheck.Test.make ~count:20
    ~name:"control-fault specs elaborate, build and run with the auditor clean"
    (QCheck.make gen_ctrl_spec) (fun spec ->
      match Check.elaborate spec with
      | Error ds ->
          QCheck.Test.fail_reportf "diagnostics on well-formed control-fault spec: %s"
            (String.concat "; " (List.map Check.diag_str ds))
      | Ok ir ->
          let engine = Eventsim.Engine.create () in
          let rng = Rng.create ~seed:5 in
          let b = Build.instantiate ~rng engine ir in
          let controls = Build.control_injectors b ~classify:Cmproto.is_control in
          let sc = Build.scenario ~name:"p" ir in
          Scenario.compile engine ~rng:(Rng.split rng) ~links:(Build.links_alist b) ~controls
            sc;
          let cms = ref [] in
          let by_host = Hashtbl.create 4 in
          let cm_for h =
            match Hashtbl.find_opt by_host (Netsim.Host.id h) with
            | Some cm -> cm
            | None ->
                let cm =
                  Cm.create engine ~feedback_watchdog:Cm.Macroflow.default_watchdog
                    ~auditor:Cm.default_auditor ()
                in
                Cm.attach cm h;
                Hashtbl.replace by_host (Netsim.Host.id h) cm;
                cms := cm :: !cms;
                cm
          in
          let running =
            Cm_spec.Launch.run b
              ~driver_for:(fun h -> Some (Tcp.Conn.Cm_driven (cm_for h)))
              ()
          in
          Eventsim.Engine.run ~until:(Time.sec 60.) engine;
          let breaches =
            List.concat_map (fun cm -> (Cm.Audit.run cm).Cm.Audit.violations) !cms
          in
          if breaches <> [] then
            QCheck.Test.fail_reportf "auditor breaches: %s" (String.concat "; " breaches);
          if not (List.for_all (fun r -> Cm_spec.Launch.done_count r > 0) running) then
            QCheck.Test.fail_reportf "bulk transfer never completed";
          controls <> [])

(* ---- the three DSL-native families: determinism ------------------------- *)

let family_json run to_json =
  let results = run params in
  Exp_common.Json.to_string (to_json params results)

let test_family_deterministic name run to_json () =
  let a = family_json run to_json in
  let b = family_json run to_json in
  Alcotest.(check bool) (name ^ " non-empty") true (String.length a > 2);
  Alcotest.(check string) (name ^ " same-seed byte-identical") a b

(* ---- netsim validation (satellite): descriptive early rejections -------- *)

let test_netsim_validation () =
  let engine = Eventsim.Engine.create () in
  check_invalid "link NaN set_bandwidth" (fun () ->
      let l =
        Netsim.Link.create engine ~bandwidth_bps:1e6 ~delay:0 ~sink:(fun _ -> ()) ()
      in
      Netsim.Link.set_bandwidth l Float.nan);
  check_invalid "droptail zero bytes" (fun () ->
      Netsim.Queue_disc.droptail ~limit_bytes:0 ~limit_pkts:10 ())

let () =
  Alcotest.run "spec"
    [
      ( "parity",
        [
          Alcotest.test_case "scenarios family: DSL ≡ handwritten" `Slow test_scenarios_parity;
          Alcotest.test_case "pipe with loss + rev_queue: Build ≡ handwritten" `Quick
            test_pipe_parity;
          Alcotest.test_case "Spec.cm stack: Build ≡ handwritten CM" `Quick test_stack_parity;
          Alcotest.test_case "stack lookups: cm, libcm, driver" `Quick test_stack_lookups;
          Alcotest.test_case "datagram group: Launch ≡ handwritten" `Quick test_datagram_parity;
          Alcotest.test_case "cmproto group: Launch ≡ handwritten" `Quick test_cmproto_parity;
          Alcotest.test_case "bulk group: Launch ≡ handwritten" `Quick test_bulk_parity;
          Alcotest.test_case "bulk group: stock-TCP baseline skips the CM" `Quick
            test_bulk_baseline;
          Alcotest.test_case "Launch.stop halts one group's refills" `Quick test_launch_stop;
        ] );
      ( "topology",
        [
          Alcotest.test_case "pipe roundtrip" `Quick test_pipe_roundtrip;
          Alcotest.test_case "star connectivity" `Quick test_star_connectivity;
        ] );
      ( "checks",
        [
          Alcotest.test_case "clean base" `Quick test_clean_base;
          Alcotest.test_case "dup-name" `Quick test_dup_name;
          Alcotest.test_case "dup-address" `Quick test_dup_address;
          Alcotest.test_case "bad-address" `Quick test_bad_address;
          Alcotest.test_case "bad-link-param" `Quick test_bad_link_param;
          Alcotest.test_case "unknown-node" `Quick test_unknown_node;
          Alcotest.test_case "self-link" `Quick test_self_link;
          Alcotest.test_case "multihomed-host" `Quick test_multihomed_host;
          Alcotest.test_case "router-endpoint" `Quick test_router_endpoint;
          Alcotest.test_case "empty-group" `Quick test_empty_group;
          Alcotest.test_case "bad-app" `Quick test_bad_app;
          Alcotest.test_case "bad-time" `Quick test_bad_time;
          Alcotest.test_case "unknown-target" `Quick test_unknown_target;
          Alcotest.test_case "bad-fault" `Quick test_bad_fault;
          Alcotest.test_case "fault-overlap" `Quick test_fault_overlap;
          Alcotest.test_case "unreachable" `Quick test_unreachable;
          Alcotest.test_case "port-clash" `Quick test_port_clash;
          Alcotest.test_case "server-conflict" `Quick test_server_conflict;
          Alcotest.test_case "oversubscribed" `Quick test_oversubscribed;
          Alcotest.test_case "control-target" `Quick test_control_target;
          Alcotest.test_case "bad-stack" `Quick test_bad_stack;
          Alcotest.test_case "needs-cm" `Quick test_needs_cm;
          Alcotest.test_case "ack-conflict" `Quick test_ack_conflict;
          Alcotest.test_case "summary names every app class" `Quick test_summary_apps;
          Alcotest.test_case "diagnostics carry spans" `Quick test_span_in_diag;
        ] );
      ( "routing",
        [
          Alcotest.test_case "no host is a next hop (regression)" `Quick test_no_host_next_hop;
          Alcotest.test_case "packets follow Check.route" `Quick test_route_agreement;
          QCheck_alcotest.to_alcotest prop_next_hop_table;
        ] );
      ( "sugar",
        [
          Alcotest.test_case "fat_tree k=4 shape + any-to-any routes" `Quick test_fat_tree_shape;
          Alcotest.test_case "clients shape + naming" `Quick test_clients_shape;
          Alcotest.test_case "seq shifts phases" `Quick test_seq_offsets;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_wellformed_compiles;
          QCheck_alcotest.to_alcotest prop_ctrl_fault_runs;
        ] );
      ( "families",
        [
          Alcotest.test_case "fattree deterministic" `Slow
            (test_family_deterministic "fattree" Fattree.run Fattree.to_json);
          Alcotest.test_case "cdn_edge deterministic" `Slow
            (test_family_deterministic "cdn_edge" Cdn_edge.run Cdn_edge.to_json);
          Alcotest.test_case "cellular deterministic" `Slow
            (test_family_deterministic "cellular" Cellular.run Cellular.to_json);
        ] );
      ("netsim-validation", [ Alcotest.test_case "descriptive rejections" `Quick test_netsim_validation ]);
    ]
