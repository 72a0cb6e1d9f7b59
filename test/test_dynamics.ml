(* Tests for the fault-injection & network-dynamics subsystem:
   channel-loss models (Bernoulli, Gilbert–Elliott), fault injectors
   (outage/flap, delay spikes, bandwidth steps/ramps), and the declarative
   scenario compiler with its determinism contract. *)

open Cm_util
open Eventsim
open Netsim
open Cm_spec
open Cm_dynamics

let ( => ) name cond = Alcotest.(check bool) name true cond

let mk_flow () =
  Addr.flow
    ~src:(Addr.endpoint ~host:0 ~port:10)
    ~dst:(Addr.endpoint ~host:1 ~port:20)
    ~proto:Addr.Udp ()

let mk_pkt ?(bytes = 1000) () =
  Packet.make ~now:0 ~flow:(mk_flow ()) ~payload_bytes:bytes (Packet.Raw bytes)

(* constant-bit-rate UDP load from port 9 of [host]: one [bytes]-byte
   packet every [bytes * 8 / rate_bps] seconds until [stop] *)
let cbr e ~host ~dst ~rate_bps ~bytes ~stop =
  let gap = Time.sec (float_of_int (bytes * 8) /. rate_bps) in
  let flow = Addr.flow ~src:(Addr.endpoint ~host:(Host.id host) ~port:9) ~dst ~proto:Addr.Udp () in
  let payload = bytes - Packet.header_bytes in
  let rec tick () =
    if Engine.now e < stop then begin
      Host.ip_output host
        (Packet.make ~now:(Engine.now e) ~flow ~payload_bytes:payload (Packet.Raw payload));
      ignore (Engine.schedule_after e gap tick)
    end
  in
  ignore (Engine.schedule_after e 0 tick)

let expect_invalid name f =
  name
  => (try
        ignore (f ());
        false
      with Invalid_argument _ -> true)

(* ---- Loss models ------------------------------------------------------- *)

(* acceptance criterion: empirical loss over >= 1e5 packets within 5%
   relative error of the analytic stationary rate, for two parameter sets *)
let check_ge_stationary ~seed params =
  let rng = Rng.create ~seed in
  let model = Loss.gilbert_elliott rng params in
  let n = 200_000 in
  let lost = ref 0 in
  for _ = 1 to n do
    if model () then incr lost
  done;
  let empirical = float_of_int !lost /. float_of_int n in
  let analytic = Loss.ge_stationary_loss params in
  let rel = Float.abs (empirical -. analytic) /. analytic in
  Alcotest.(check bool)
    (Printf.sprintf "empirical %.5f within 5%% of analytic %.5f (rel %.3f)" empirical analytic
       rel)
    true (rel < 0.05)

let test_ge_stationary_bursty () =
  (* mean burst 10 packets, bad 9.1% of the time, stationary ~ 2.73% *)
  check_ge_stationary ~seed:42 (Loss.ge ~p_gb:0.01 ~p_bg:0.1 ~loss_bad:0.3 ())

let test_ge_stationary_lossy_good () =
  (* loss in both states: 0.9*0.001 + 0.1*0.5 = 5.09% *)
  check_ge_stationary ~seed:43
    (Loss.ge ~p_gb:0.02 ~p_bg:0.18 ~loss_good:0.001 ~loss_bad:0.5 ())

let test_ge_burstiness () =
  (* same stationary rate as i.i.d., but losses must clump: the number of
     loss runs is far below the Bernoulli expectation *)
  let params = Loss.ge ~p_gb:0.005 ~p_bg:0.05 ~loss_bad:1.0 () in
  let rng = Rng.create ~seed:7 in
  let model = Loss.gilbert_elliott rng params in
  let n = 100_000 in
  let runs = ref 0 and prev = ref false and lost = ref 0 in
  for _ = 1 to n do
    let l = model () in
    if l then begin
      incr lost;
      if not !prev then incr runs
    end;
    prev := l
  done;
  let p = Loss.ge_stationary_loss params in
  (* i.i.d. losses at rate p would start a run ~ n*p*(1-p) times; a GE
     chain with mean burst 1/p_bg = 20 starts ~ n*p*p_bg runs *)
  let iid_runs = float_of_int n *. p *. (1. -. p) in
  "losses occurred" => (!lost > 0);
  "losses are bursty, not i.i.d." => (float_of_int !runs < 0.25 *. iid_runs)

let test_ge_validation () =
  expect_invalid "p_gb out of range" (fun () -> Loss.ge ~p_gb:1.5 ~p_bg:0.1 ());
  expect_invalid "NaN p_bg" (fun () -> Loss.ge ~p_gb:0.1 ~p_bg:Float.nan ());
  expect_invalid "frozen chain" (fun () -> Loss.ge ~p_gb:0. ~p_bg:0. ());
  expect_invalid "bad loss_bad" (fun () -> Loss.ge ~p_gb:0.1 ~p_bg:0.1 ~loss_bad:(-1.) ());
  expect_invalid "bernoulli p > 1" (fun () -> Loss.bernoulli (Rng.create ~seed:1) ~p:2.)

let test_link_loss_model_override () =
  let e = Engine.create () in
  let rng = Rng.create ~seed:3 in
  let got = ref 0 in
  let link = Link.create e ~bandwidth_bps:1e9 ~delay:0 ~rng ~sink:(fun _ -> incr got) () in
  (* a model that loses everything overrides the (zero) baseline *)
  Link.set_loss_model link (Some (fun () -> true));
  for _ = 1 to 10 do
    Link.send link (mk_pkt ())
  done;
  Engine.run e;
  Alcotest.(check int) "all lost by the model" 0 !got;
  Alcotest.(check int) "counted as channel drops" 10 (Link.stats link).Link.channel_drops;
  (* clearing the model restores the baseline (no loss) *)
  Link.set_loss_model link None;
  for _ = 1 to 10 do
    Link.send link (mk_pkt ())
  done;
  Engine.run e;
  Alcotest.(check int) "baseline restored" 10 !got

(* ---- Outage / flap ------------------------------------------------------ *)

let test_outage_drops_in_flight () =
  let e = Engine.create () in
  let got = ref 0 in
  (* 1 ms serialization per packet, 50 ms propagation: several packets are
     in flight when the outage hits at t = 5 ms *)
  let link =
    Link.create e ~bandwidth_bps:8e6 ~delay:(Time.ms 50) ~sink:(fun _ -> incr got) ()
  in
  for _ = 1 to 10 do
    Link.send link (mk_pkt ~bytes:(1000 - Packet.header_bytes) ())
  done;
  Faults.outage e link ~at:(Time.ms 5) ~duration:(Time.ms 20);
  Engine.run e;
  let stats = Link.stats link in
  "some packets died in the outage" => (stats.Link.down_drops > 0);
  Alcotest.(check int) "conservation" 10 (!got + stats.Link.down_drops);
  (* the queue survived the outage and drained after bring_up *)
  "queued packets were delivered after recovery" => (!got > 0);
  "link is back up" => Link.up link

let test_send_while_down_drops () =
  let e = Engine.create () in
  let got = ref 0 in
  let link = Link.create e ~bandwidth_bps:1e9 ~delay:0 ~sink:(fun _ -> incr got) () in
  Link.take_down link;
  for _ = 1 to 5 do
    Link.send link (mk_pkt ())
  done;
  Engine.run e;
  Alcotest.(check int) "nothing delivered" 0 !got;
  Alcotest.(check int) "offered packets died" 5 (Link.stats link).Link.down_drops;
  Link.bring_up link;
  Link.send link (mk_pkt ());
  Engine.run e;
  Alcotest.(check int) "delivery resumes after bring_up" 1 !got

let test_flap_cycles () =
  let e = Engine.create () in
  let link = Link.create e ~bandwidth_bps:1e9 ~delay:0 ~sink:ignore () in
  let transitions = ref [] in
  let probe () = transitions := (Engine.now e, Link.up link) :: !transitions in
  Faults.flap e link ~at:(Time.ms 10) ~down:(Time.ms 5) ~up:(Time.ms 5) ~cycles:3;
  List.iter
    (fun ms -> ignore (Engine.schedule_at e (Time.ms ms + Time.us 1) probe))
    [ 10; 15; 20; 25; 30; 35; 40 ];
  Engine.run e;
  let ups = List.rev_map snd !transitions in
  Alcotest.(check (list bool)) "down/up alternation over 3 cycles"
    [ false; true; false; true; false; true; true ]
    ups

(* ---- Delay spike -------------------------------------------------------- *)

let test_delay_spike () =
  let e = Engine.create () in
  let arrivals = ref [] in
  let link =
    Link.create e ~bandwidth_bps:8e6 ~delay:(Time.ms 10)
      ~sink:(fun _ -> arrivals := Engine.now e :: !arrivals)
      ()
  in
  Faults.delay_spike e link ~at:(Time.ms 100) ~extra:(Time.ms 40) ~duration:(Time.ms 100) ();
  let send_at ms =
    ignore
      (Engine.schedule_at e (Time.ms ms) (fun () ->
           Link.send link (mk_pkt ~bytes:(1000 - Packet.header_bytes) ())))
  in
  send_at 0;
  (* 1 ms tx + 10 ms prop = arrives at 11 ms *)
  send_at 150;
  (* inside the spike: 1 + 10 + 40 = arrives at 201 ms *)
  send_at 300;
  (* after the spike clears: arrives at 311 ms *)
  Engine.run e;
  Alcotest.(check (list int)) "base, spiked, recovered"
    [ Time.ms 11; Time.ms 201; Time.ms 311 ]
    (List.rev !arrivals)

(* ---- Bandwidth steps / ramp --------------------------------------------- *)

let test_bandwidth_steps () =
  let e = Engine.create () in
  let net = Build.pipe e (Spec.pipe ~bw:1e7 ~lat:0 ()) in
  Faults.bandwidth_steps e net.Build.ab [ (Time.sec 1., 5e6); (Time.sec 2., 2e6) ];
  Engine.run ~until:(Time.ms 1500) e;
  Alcotest.(check (float 1.)) "first change applied" 5e6 (Link.bandwidth net.Build.ab);
  Engine.run ~until:(Time.sec 3.) e;
  Alcotest.(check (float 1.)) "second change applied" 2e6 (Link.bandwidth net.Build.ab)

let test_bandwidth_ramp () =
  let e = Engine.create () in
  let link = Link.create e ~bandwidth_bps:10e6 ~delay:0 ~sink:ignore () in
  Faults.bandwidth_ramp e link ~at:(Time.sec 1.) ~to_bps:2e6 ~over:(Time.sec 4.) ~steps:4;
  Engine.run ~until:(Time.ms 2100) e;
  Alcotest.(check (float 1.)) "first step: 10 - 2 = 8" 8e6 (Link.bandwidth link);
  Engine.run ~until:(Time.ms 3100) e;
  Alcotest.(check (float 1.)) "halfway: 6" 6e6 (Link.bandwidth link);
  Engine.run ~until:(Time.sec 6.) e;
  Alcotest.(check (float 1.)) "ramp target reached" 2e6 (Link.bandwidth link)

(* ---- Scenario ------------------------------------------------------------ *)

let test_scenario_validation () =
  expect_invalid "unknown target rejected at compile" (fun () ->
      let e = Engine.create () in
      let link = Link.create e ~bandwidth_bps:1e6 ~delay:0 ~sink:ignore () in
      Scenario.compile e ~rng:(Rng.create ~seed:1)
        ~links:[ ("fwd", link) ]
        (Scenario.make ~name:"bad"
           [ { Scenario.at = 0; target = "bogus"; action = Scenario.Outage (Time.sec 1.) } ]));
  expect_invalid "bad probability rejected at make" (fun () ->
      Scenario.make ~name:"bad"
        [ { Scenario.at = 0; target = "fwd"; action = Scenario.Set_loss (Scenario.Loss_bernoulli 1.5) } ]);
  expect_invalid "negative time rejected at make" (fun () ->
      Scenario.make ~name:"bad"
        [ { Scenario.at = -1; target = "fwd"; action = Scenario.Set_bandwidth 1e6 } ])

let test_scenario_fault_window () =
  let s =
    Scenario.make ~name:"w"
      [
        { Scenario.at = Time.sec 1.; target = "fwd"; action = Scenario.Set_bandwidth 1e6 };
        { Scenario.at = Time.sec 5.; target = "fwd"; action = Scenario.Outage (Time.sec 2.) };
        {
          Scenario.at = Time.sec 3.;
          target = "fwd";
          action = Scenario.Loss_burst { spec = Scenario.Loss_bernoulli 0.1; duration = Time.sec 1. };
        };
      ]
  in
  (match Scenario.fault_window s with
  | Some (s0, e0) ->
      Alcotest.(check int) "window starts at the first disruption" (Time.sec 3.) s0;
      Alcotest.(check int) "window ends at the last clearance" (Time.sec 7.) e0
  | None -> Alcotest.fail "expected a fault window");
  let bw_only =
    Scenario.make ~name:"bw" [ { Scenario.at = 0; target = "fwd"; action = Set_bandwidth 1e6 } ]
  in
  "renegotiation-only scenario has no fault window" => (Scenario.fault_window bw_only = None)

(* one scenario exercising every action kind, driven by CBR traffic; the
   whole observable outcome (delivery count + link stats) must be a pure
   function of the seed *)
let scenario_run seed =
  let e = Engine.create () in
  let rng = Rng.create ~seed in
  let net = Build.pipe ~rng e (Spec.pipe ~bw:8e6 ~lat:(Time.ms 5) ()) in
  let got = ref 0 in
  Host.bind net.Build.b Addr.Udp ~port:9 (fun _ -> incr got);
  cbr e ~host:net.Build.a ~dst:(Addr.endpoint ~host:1 ~port:9) ~rate_bps:2e6 ~bytes:1000
    ~stop:(Time.sec 20.);
  let scenario =
    Scenario.make ~name:"everything"
      [
        { Scenario.at = Time.sec 2.; target = "fwd"; action = Scenario.Set_bandwidth 4e6 };
        {
          Scenario.at = Time.sec 4.;
          target = "fwd";
          action =
            Scenario.Loss_burst
              {
                spec = Scenario.Loss_gilbert_elliott (Loss.ge ~p_gb:0.02 ~p_bg:0.2 ~loss_bad:0.5 ());
                duration = Time.sec 3.;
              };
        };
        { Scenario.at = Time.sec 8.; target = "fwd"; action = Scenario.Outage (Time.sec 1.) };
        {
          Scenario.at = Time.sec 10.;
          target = "fwd";
          action =
            Scenario.Delay_spike
              { extra = Time.ms 30; jitter = Time.ms 5; duration = Time.sec 2. };
        };
        {
          Scenario.at = Time.sec 13.;
          target = "fwd";
          action = Scenario.Flap { down = Time.ms 200; up = Time.ms 300; cycles = 2 };
        };
        {
          Scenario.at = Time.sec 15.;
          target = "fwd";
          action = Scenario.Ramp_bandwidth { to_bps = 8e6; over = Time.sec 2.; steps = 4 };
        };
      ]
  in
  Scenario.compile e ~rng ~links:[ ("fwd", net.Build.ab); ("rev", net.Build.ba) ] scenario;
  Engine.run ~until:(Time.sec 21.) e;
  (!got, Link.stats net.Build.ab)

let test_scenario_deterministic () =
  let got1, stats1 = scenario_run 42 in
  let got2, stats2 = scenario_run 42 in
  Alcotest.(check int) "same deliveries" got1 got2;
  "identical link stats" => (stats1 = stats2);
  "every drop cause occurred"
  => (stats1.Link.channel_drops > 0 && stats1.Link.down_drops > 0);
  "traffic flowed" => (got1 > 1000)

(* ---- Control-plane fault injection -------------------------------------- *)

(* two CBR streams into one host; the injector classifies only port-9
   traffic as "control", so port 10 must never be touched *)
let control_run ~profile ~seed =
  let e = Engine.create () in
  let rng = Rng.create ~seed in
  let net = Build.pipe ~rng e (Spec.pipe ~bw:8e6 ~lat:(Time.ms 5) ()) in
  let inj =
    Control_faults.install net.Build.b ~classify:(fun pkt ->
        pkt.Packet.flow.Addr.dst.Addr.port = 9)
  in
  let ctl = ref 0 and data = ref 0 in
  Host.bind net.Build.b Addr.Udp ~port:9 (fun _ -> incr ctl);
  Host.bind net.Build.b Addr.Udp ~port:10 (fun _ -> incr data);
  List.iter
    (fun port ->
      cbr e ~host:net.Build.a ~dst:(Addr.endpoint ~host:1 ~port) ~rate_bps:1e6 ~bytes:500
        ~stop:(Time.sec 6.))
    [ 9; 10 ];
  Control_faults.engage inj ~rng:(Rng.split rng) ~at:(Time.sec 2.) ~profile
    ~duration:(Time.sec 2.);
  Engine.run ~until:(Time.sec 8.) e;
  (!ctl, !data, Control_faults.counters inj, Control_faults.active inj)

let test_control_faults_targets_only_control () =
  let drop_all = { Control_faults.drop = 1.0; dup = 0.0; delay = 0; jitter = 0 } in
  let ctl, data, c, still_active = control_run ~profile:drop_all ~seed:7 in
  let clean_ctl, clean_data, _, _ =
    control_run ~profile:{ drop_all with Control_faults.drop = 0.0 } ~seed:7
  in
  Alcotest.(check int) "data traffic untouched" clean_data data;
  "all in-window control packets dropped" => (c.Control_faults.dropped > 0);
  "control deliveries reduced by exactly the drops"
  => (ctl = clean_ctl - c.Control_faults.dropped);
  "window cleared after its duration" => (not still_active);
  "bookkeeping balances"
  => (c.Control_faults.matched
      = c.Control_faults.passed + c.Control_faults.dropped + c.Control_faults.delayed)

let test_control_faults_dup_delay_deterministic () =
  let messy =
    { Control_faults.drop = 0.2; dup = 0.3; delay = Time.ms 2; jitter = Time.ms 5 }
  in
  let r1 = control_run ~profile:messy ~seed:11 in
  let r2 = control_run ~profile:messy ~seed:11 in
  "same seed, same outcome" => (r1 = r2);
  let _, _, c, _ = r1 in
  "duplicates injected" => (c.Control_faults.duplicated > 0);
  "packets rescheduled" => (c.Control_faults.delayed > 0)

let test_control_fault_scenario_action () =
  let profile = { Control_faults.drop = 0.5; dup = 0.0; delay = 0; jitter = 0 } in
  expect_invalid "zero-duration control fault rejected at make" (fun () ->
      Scenario.make ~name:"bad"
        [
          {
            Scenario.at = 0;
            target = "ctl";
            action = Scenario.Control_fault { profile; duration = 0 };
          };
        ]);
  expect_invalid "bad probability rejected at make" (fun () ->
      Scenario.make ~name:"bad"
        [
          {
            Scenario.at = 0;
            target = "ctl";
            action =
              Scenario.Control_fault
                { profile = { profile with Control_faults.drop = 1.5 }; duration = Time.sec 1. };
          };
        ]);
  let good =
    Scenario.make ~name:"good"
      [
        {
          Scenario.at = Time.sec 1.;
          target = "ctl";
          action = Scenario.Control_fault { profile; duration = Time.sec 2. };
        };
      ]
  in
  (* control targets resolve against the controls binding, not links *)
  Scenario.validate ~links:[] ~controls:[ "ctl" ] good;
  expect_invalid "unknown control target rejected" (fun () ->
      Scenario.validate ~links:[] ~controls:[] good);
  (match Scenario.fault_window good with
  | Some (s0, e0) ->
      Alcotest.(check int) "window opens at the engagement" (Time.sec 1.) s0;
      Alcotest.(check int) "window closes at the clearance" (Time.sec 3.) e0
  | None -> Alcotest.fail "control fault must contribute a fault window");
  (* and compile arms the injector *)
  let e = Engine.create () in
  let host = Host.create e ~id:0 () in
  let inj = Control_faults.install host ~classify:(fun _ -> true) in
  Scenario.compile e ~rng:(Rng.create ~seed:1) ~links:[] ~controls:[ ("ctl", inj) ] good;
  "inactive before the window" => (not (Control_faults.active inj));
  Engine.run ~until:(Time.sec 2.) e;
  "active inside the window" => Control_faults.active inj;
  Engine.run ~until:(Time.sec 4.) e;
  "cleared after the window" => (not (Control_faults.active inj))

(* ---- Scenario experiments (acceptance criteria) -------------------------- *)

(* a TCP/CM bulk flow must collapse during the 2 s outage and climb back to
   >= 80% of its pre-fault goodput within a bounded window after the link
   returns *)
let test_outage_recovery () =
  let open Experiments.Scenarios in
  let r =
    run_one Experiments.Exp_common.default_params ~scenario:Outage ~app:Tcp_cm_bulk
  in
  "goodput collapses during the outage" => (r.r_fault_bps < 0.2 *. r.r_pre_bps);
  "outage killed in-flight packets" => (r.r_stats.Link.down_drops > 0);
  match r.r_recovery with
  | None -> Alcotest.fail "flow never recovered after the outage cleared"
  | Some rec_span ->
      Alcotest.(check bool)
        (Printf.sprintf "recovered to 80%% of pre-fault goodput in %.1f s (bound 6 s)"
           (Time.to_float_s rec_span))
        true
        (rec_span <= Time.sec 6.)

(* same seed => byte-identical serialized JSON for the whole 3x2 matrix *)
let test_scenario_json_deterministic () =
  let open Experiments in
  let p = Exp_common.default_params in
  let render () = Exp_common.Json.to_string (Scenarios.to_json p (Scenarios.run p)) in
  let j1 = render () and j2 = render () in
  Alcotest.(check string) "byte-identical JSON across runs" j1 j2;
  "document is non-trivial" => (String.length j1 > 200)

let () =
  Alcotest.run "dynamics"
    [
      ( "loss",
        [
          Alcotest.test_case "GE stationary rate (bursty)" `Quick test_ge_stationary_bursty;
          Alcotest.test_case "GE stationary rate (lossy good)" `Quick
            test_ge_stationary_lossy_good;
          Alcotest.test_case "GE burstiness" `Quick test_ge_burstiness;
          Alcotest.test_case "parameter validation" `Quick test_ge_validation;
          Alcotest.test_case "link loss-model override" `Quick test_link_loss_model_override;
        ] );
      ( "faults",
        [
          Alcotest.test_case "outage drops in-flight" `Quick test_outage_drops_in_flight;
          Alcotest.test_case "send while down" `Quick test_send_while_down_drops;
          Alcotest.test_case "flap cycles" `Quick test_flap_cycles;
          Alcotest.test_case "delay spike" `Quick test_delay_spike;
          Alcotest.test_case "bandwidth steps" `Quick test_bandwidth_steps;
          Alcotest.test_case "bandwidth ramp" `Quick test_bandwidth_ramp;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "validation" `Quick test_scenario_validation;
          Alcotest.test_case "fault window" `Quick test_scenario_fault_window;
          Alcotest.test_case "determinism" `Quick test_scenario_deterministic;
        ] );
      ( "control_faults",
        [
          Alcotest.test_case "targets only control traffic" `Quick
            test_control_faults_targets_only_control;
          Alcotest.test_case "dup/delay deterministic" `Quick
            test_control_faults_dup_delay_deterministic;
          Alcotest.test_case "scenario action" `Quick test_control_fault_scenario_action;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "outage recovery" `Quick test_outage_recovery;
          Alcotest.test_case "JSON determinism" `Quick test_scenario_json_deterministic;
        ] );
    ]
