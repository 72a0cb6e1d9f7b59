(* vat: interactive real-time audio with preemptive dropping (§3.6).

   A 64 kbit/s audio source cannot downsample, so it polices itself to the
   CM-reported rate (dropping frames preemptively) and keeps its own short
   drop-from-head buffer to bound delay.  We squeeze the path below the
   audio rate mid-run and watch the policer shed load while delivered
   frames keep low latency.

   Run with: dune exec examples/vat_audio.exe *)

open Cm_util
open Eventsim
open Netsim
open Cm_spec

let () =
  let engine = Engine.create () in
  (* plenty of bandwidth at first, then a 32 kbit/s squeeze, then recovery *)
  let net = Build.pipe engine (Spec.pipe ~queue:20 ~bw:256e3 ~lat:(Time.ms 30) ()) in
  Cm_dynamics.Faults.bandwidth_steps engine net.Build.ab
    [ (Time.sec 10., 32e3); (Time.sec 20., 256e3) ];

  let cm = Cm.create engine ~mtu:1000 () in
  Cm.attach cm net.Build.a;
  let lib = Libcm.create net.Build.a cm () in

  let receiver = Cm_apps.Vat.Receiver.create net.Build.b ~port:5006 () in
  let vat =
    Cm_apps.Vat.create lib ~host:net.Build.a ~dst:(Addr.endpoint ~host:1 ~port:5006) ()
  in
  Cm_apps.Vat.start vat;

  let printer =
    Timer.create engine ~callback:(fun () ->
        let s = Cm_apps.Vat.stats vat in
        Format.printf
          "t=%2.0fs policer-rate=%6.1f kbit/s  in=%4d sent=%4d policer-drops=%4d buffer-drops=%3d@."
          (Time.to_float_s (Engine.now engine))
          (Cm_apps.Vat.policer_rate_bps vat /. 1e3)
          s.Cm_apps.Vat.frames_in s.Cm_apps.Vat.frames_sent s.Cm_apps.Vat.policer_drops
          s.Cm_apps.Vat.buffer_drops)
  in
  Timer.start_periodic printer (Time.sec 2.);
  Engine.run_for engine (Time.sec 30.);
  Cm_apps.Vat.stop vat;

  let delays = Cm_apps.Vat.Receiver.delay_stats receiver in
  Format.printf "received %d frames; one-way delay: %a (ms)@."
    (Cm_apps.Vat.Receiver.frames_received receiver)
    Stats.pp delays
