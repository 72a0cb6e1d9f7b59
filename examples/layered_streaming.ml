(* Layered streaming: the paper's adaptive audio/video server (§3.4).

   A four-layer source streams over a path whose available bandwidth is
   cut and restored while it runs; the application adapts its layer using
   the CM's rate callbacks (cm_thresh + cmapp_update), entirely from user
   space through libcm.

   Run with: dune exec examples/layered_streaming.exe *)

open Cm_util
open Eventsim
open Netsim
open Cm_spec

let () =
  let engine = Engine.create () in
  let net = Build.pipe engine (Spec.pipe ~queue:50 ~bw:10e6 ~lat:(Time.ms 25) ()) in

  (* available bandwidth drops to 2 Mbit/s at t=8s and recovers at t=16s *)
  Cm_dynamics.Scenario.compile engine ~rng:(Rng.create ~seed:1)
    ~links:[ ("path", net.Build.ab) ]
    (Cm_dynamics.Scenario.make ~name:"squeeze"
       (List.map
          (fun (at, bw) -> { Cm_dynamics.Scenario.at; target = "path"; action = Set_bandwidth bw })
          [ (Time.sec 8., 2e6); (Time.sec 16., 10e6) ]));

  let cm = Cm.create engine ~mtu:1000 () in
  Cm.attach cm net.Build.a;
  let lib = Libcm.create net.Build.a cm () in
  let _rx = Udp.Cc_socket.run_echo_receiver net.Build.b ~port:5004 () in

  (* cumulative layer rates: 0.5 / 1 / 2 / 4 Mbit/s *)
  let source =
    Cm_apps.Layered.create lib ~host:net.Build.a
      ~dst:(Addr.endpoint ~host:1 ~port:5004)
      ~layers:[| 0.5e6; 1e6; 2e6; 4e6 |]
      ~mode:(Cm_apps.Layered.Rate_callback { down = 0.85; up = 1.2 })
      ()
  in
  Cm_apps.Layered.start source;

  (* print the chosen layer once per second *)
  let printer =
    Timer.create engine ~callback:(fun () ->
        Format.printf "t=%2.0fs  layer=%d  cm-rate=%6.2f Mbit/s@."
          (Time.to_float_s (Engine.now engine))
          (Cm_apps.Layered.current_layer source)
          ((Libcm.query lib (Cm_apps.Layered.flow source)).Cm.Cm_types.rate_bps /. 1e6))
  in
  Timer.start_periodic printer (Time.sec 1.);
  Engine.run_for engine (Time.sec 24.);
  Cm_apps.Layered.stop source;
  Format.printf "sent %d packets (%d bytes)@."
    (Cm_apps.Layered.packets_sent source)
    (Cm_apps.Layered.bytes_sent source)
