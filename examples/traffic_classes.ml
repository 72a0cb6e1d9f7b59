(* Traffic classes: the weighted scheduler and DSCP-keyed macroflows.

   Two senders to the same destination host — an "expedited" class and a
   best-effort bulk class — share one macroflow by default and split its
   window evenly under round-robin.  Swapping in the weighted (stride)
   scheduler splits it 3:1 instead; and under diffserv (§5 of the paper)
   the DSCP-aware aggregation mode gives the classes separate congestion
   state entirely.

   Run with: dune exec examples/traffic_classes.exe *)

open Cm_util
open Eventsim
open Netsim
open Cm_spec

let run_pair ~title ~scheduler ~weights =
  let engine = Engine.create () in
  let net = Build.pipe engine (Spec.pipe ~bw:4e6 ~lat:(Time.ms 20) ()) in
  let cm = Cm.create engine ~mtu:1000 ~scheduler () in
  Cm.attach cm net.Build.a;
  let _r1 = Udp.Cc_socket.run_echo_receiver net.Build.b ~port:7001 () in
  let _r2 = Udp.Cc_socket.run_echo_receiver net.Build.b ~port:7002 () in
  let expedited =
    Udp.Cc_socket.create net.Build.a ~cm ~dst:(Addr.endpoint ~host:1 ~port:7001) ()
  in
  let bulk = Udp.Cc_socket.create net.Build.a ~cm ~dst:(Addr.endpoint ~host:1 ~port:7002) () in
  (match weights with
  | Some (we, wb) ->
      Cm.set_weight cm (Udp.Cc_socket.flow expedited) we;
      Cm.set_weight cm (Udp.Cc_socket.flow bulk) wb
  | None -> ());
  let feeder =
    Timer.create engine ~callback:(fun () ->
        List.iter
          (fun s ->
            let room = 64 - Udp.Cc_socket.queued s in
            for _ = 1 to room do
              Udp.Cc_socket.send s 1000
            done)
          [ expedited; bulk ])
  in
  Timer.start_periodic feeder (Time.ms 20);
  Engine.run_for engine (Time.sec 15.);
  Timer.stop feeder;
  let e = Udp.Cc_socket.bytes_sent expedited and b = Udp.Cc_socket.bytes_sent bulk in
  Format.printf "%s@.  expedited %6d KB   bulk %6d KB   ratio %.2f@.@." title (e / 1000)
    (b / 1000)
    (float_of_int e /. float_of_int b)

let () =
  run_pair ~title:"round-robin scheduler (the paper's default):"
    ~scheduler:Cm.Scheduler.round_robin ~weights:None;
  run_pair ~title:"weighted (stride) scheduler, expedited weight 3:"
    ~scheduler:Cm.Scheduler.weighted ~weights:(Some (3.0, 1.0));
  (* DSCP separation: same destination, different service classes *)
  let engine = Engine.create () in
  let cm =
    Cm.create engine ~mtu:1000 ~aggregation:Cm.By_destination_and_dscp ()
  in
  let dst = Addr.endpoint ~host:1 ~port:7001 in
  let ef =
    Cm.open_flow cm
      (Addr.flow ~dscp:46 ~src:(Addr.endpoint ~host:0 ~port:100) ~dst ~proto:Addr.Udp ())
  in
  let be =
    Cm.open_flow cm (Addr.flow ~src:(Addr.endpoint ~host:0 ~port:101) ~dst ~proto:Addr.Udp ())
  in
  Format.printf
    "diffserv aggregation: DSCP 46 flow in macroflow %d, best-effort in macroflow %d@."
    (Cm.macroflow_id cm ef) (Cm.macroflow_id cm be)
