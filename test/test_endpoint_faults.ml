(* Tests for the endpoint fault-tolerance layer: the feedback watchdog,
   the misbehaving-application auditor (rejection, scoring, quarantine),
   crash reclamation through Libcm.destroy / Cm.reap, the structural
   invariant auditor, and the app_faults experiment family. *)

open Cm_util
open Eventsim
open Netsim
open Cm_spec
open Cm

let ( => ) name cond = Alcotest.(check bool) name true cond
let mtu = 1000

let flow_key ?(sport = 100) ?(dport = 200) ?(dst = 1) () =
  Addr.flow
    ~src:(Addr.endpoint ~host:0 ~port:sport)
    ~dst:(Addr.endpoint ~host:dst ~port:dport)
    ~proto:Addr.Udp ()

let audit_clean name cm = name => Cm.Audit.ok (Cm.Audit.run cm)

(* grow a flow's macroflow window with clean feedback cycles *)
let grow engine cm fid ~rounds =
  for _ = 1 to rounds do
    Cm.notify cm fid ~nbytes:mtu;
    Cm.update cm fid ~nsent:mtu ~nrecd:mtu ~loss:Cm_types.No_loss ~rtt:(Time.ms 50) ();
    Engine.run_for engine (Time.ms 10)
  done

(* ------------------------------------------------------------------ *)
(* Feedback watchdog *)

let test_watchdog_off_by_default () =
  let engine = Engine.create () in
  let cm = Cm.create engine ~mtu () in
  let fid = Cm.open_flow cm (flow_key ()) in
  grow engine cm fid ~rounds:8;
  let mf = Cm.macroflow_of cm fid in
  let cwnd0 = Macroflow.cwnd mf in
  "window grew" => (cwnd0 > 2 * mtu);
  (* data outstanding, then total feedback silence *)
  Cm.notify cm fid ~nbytes:mtu;
  Engine.run_for engine (Time.sec 3.);
  Alcotest.(check int) "no watchdog, no aging" cwnd0 (Macroflow.cwnd mf);
  Alcotest.(check int) "no fires counted" 0 (Cm.watchdog_fires cm)

let test_watchdog_ages_stale_window () =
  let engine = Engine.create () in
  let cm = Cm.create engine ~mtu ~feedback_watchdog:Macroflow.default_watchdog () in
  let fid = Cm.open_flow cm (flow_key ()) in
  grow engine cm fid ~rounds:8;
  let mf = Cm.macroflow_of cm fid in
  let cwnd0 = Macroflow.cwnd mf in
  "window grew" => (cwnd0 > 2 * mtu);
  (* charge stays outstanding and the feedback stops: the watchdog must
     age the window back toward the initial window, exponentially *)
  Cm.notify cm fid ~nbytes:mtu;
  Engine.run_for engine (Time.sec 3.);
  Alcotest.(check int) "aged to the initial window" mtu (Macroflow.cwnd mf);
  "multiple exponential steps" => (Cm.watchdog_fires cm >= 2);
  audit_clean "audit clean after aging" cm

let test_watchdog_quiet_when_feedback_flows () =
  let engine = Engine.create () in
  let cm = Cm.create engine ~mtu ~feedback_watchdog:Macroflow.default_watchdog () in
  let fid = Cm.open_flow cm (flow_key ()) in
  grow engine cm fid ~rounds:30;
  Alcotest.(check int) "healthy feedback never trips the watchdog" 0 (Cm.watchdog_fires cm)

(* ------------------------------------------------------------------ *)
(* Misbehaviour auditor *)

let make_audited ?(auditor = Cm.default_auditor) ?grant_reclaim_after () =
  let engine = Engine.create () in
  let cm = Cm.create engine ~mtu ~auditor ?grant_reclaim_after () in
  (engine, cm)

let test_malformed_update_rejected_not_raised () =
  let _engine, cm = make_audited () in
  let fid = Cm.open_flow cm (flow_key ()) in
  (* nrecd > nsent is impossible feedback; kernel-facing path must not
     raise once the auditor is on *)
  Cm.update cm fid ~nsent:100 ~nrecd:200 ~loss:Cm_types.No_loss ();
  let c = Cm.counters cm in
  Alcotest.(check int) "rejected and counted" 1 c.Cm.rejected_updates;
  Alcotest.(check int) "scored" 1 (Cm.suspicion cm fid);
  (* without an auditor the pre-defense contract is preserved *)
  let engine2 = Engine.create () in
  let cm2 = Cm.create engine2 ~mtu () in
  let fid2 = Cm.open_flow cm2 (flow_key ()) in
  Alcotest.check_raises "raises without auditor"
    (Invalid_argument "Macroflow.update: need 0 <= nrecd <= nsent") (fun () ->
      Cm.update cm2 fid2 ~nsent:100 ~nrecd:200 ~loss:Cm_types.No_loss ())

let test_overclaim_rejected_and_quarantined () =
  let engine, cm = make_audited () in
  let fid = Cm.open_flow cm (flow_key ()) in
  let mf0 = Cm.macroflow_id cm fid in
  let cwnd_before = Macroflow.cwnd (Cm.macroflow_of cm fid) in
  (* claim vastly more resolved bytes than were ever charged: each claim
     is rejected (the window must not inflate) and scores a strike *)
  for _ = 1 to 3 do
    Cm.update cm fid ~nsent:50_000 ~nrecd:50_000 ~loss:Cm_types.No_loss ~rtt:(Time.ms 10) ()
  done;
  let c = Cm.counters cm in
  Alcotest.(check int) "every overclaim rejected" 3 c.Cm.rejected_updates;
  Alcotest.(check int) "cwnd never inflated by rejected feedback" cwnd_before
    (Macroflow.cwnd (Cm.macroflow_of cm (Cm.open_flow cm (flow_key ~sport:101 ()))));
  Alcotest.(check int) "quarantined at the threshold" 1 c.Cm.quarantines;
  "flow marked quarantined" => Cm.is_quarantined cm fid;
  "moved to a policed macroflow" => (Cm.macroflow_id cm fid <> mf0);
  Engine.run_for engine (Time.ms 500);
  audit_clean "audit clean after quarantine" cm

let test_hoarded_grants_reclaimed_and_scored () =
  let engine, cm = make_audited ~grant_reclaim_after:(Time.ms 200) () in
  let fid = Cm.open_flow cm (flow_key ()) in
  (* accept grants but never transmit: the reclaim timer returns the
     window and each reclaimed grant is a strike *)
  Cm.register_send cm fid (fun _ -> ());
  for _ = 1 to 4 do
    Cm.request cm fid
  done;
  Engine.run_for engine (Time.sec 2.);
  let c = Cm.counters cm in
  "reclaims scored the hoarder" => (Cm.suspicion cm fid >= 3);
  Alcotest.(check int) "quarantined" 1 c.Cm.quarantines;
  "grants back in the window" => (Macroflow.granted (Cm.macroflow_of cm fid) = 0);
  audit_clean "audit clean after hoard quarantine" cm

let test_charge_inflation_quarantined () =
  let engine, cm = make_audited () in
  let fid = Cm.open_flow cm (flow_key ()) in
  (* a large ungranted transmission claim: charged only up to the
     allowance, and the phantom charge no feedback ever explains must
     accumulate inflation strikes until quarantine *)
  Cm.notify cm fid ~nbytes:70_000;
  let c = Cm.counters cm in
  Alcotest.(check int) "over-allowance notify detected" 1 c.Cm.rejected_notifies;
  Engine.run_for engine (Time.sec 4.);
  "inflation strikes accumulated" => (Cm.suspicion cm fid >= 3);
  "quarantined" => Cm.is_quarantined cm fid;
  audit_clean "audit clean after inflation quarantine" cm

let test_silent_flow_with_charge_scored () =
  let engine, cm = make_audited () in
  let f_silent = Cm.open_flow cm (flow_key ~sport:100 ()) in
  let f_honest = Cm.open_flow cm (flow_key ~sport:101 ()) in
  grow engine cm f_honest ~rounds:8;
  (* the silent flow transmits (charged) but never reports, while the
     honest sibling keeps the macroflow's own feedback clock fresh *)
  for _ = 1 to 5 do
    Cm.notify cm f_silent ~nbytes:(3 * mtu);
    Cm.notify cm f_honest ~nbytes:mtu;
    Cm.update cm f_honest ~nsent:mtu ~nrecd:mtu ~loss:Cm_types.No_loss ~rtt:(Time.ms 50) ();
    Engine.run_for engine (Time.sec 1.)
  done;
  "silent flow scored" => (Cm.suspicion cm f_silent >= 3);
  "silent flow quarantined" => Cm.is_quarantined cm f_silent;
  Alcotest.(check int) "honest sibling untouched" 0 (Cm.suspicion cm f_honest);
  audit_clean "audit clean after silence quarantine" cm

(* ------------------------------------------------------------------ *)
(* Crash reclamation: Libcm.destroy / Cm.reap *)

let make_proc () =
  let engine = Engine.create () in
  let net = Build.pipe engine (Spec.pipe ~bw:1e7 ~lat:(Time.ms 5) ()) in
  let cm = Cm.create engine ~mtu () in
  Cm.attach cm net.Build.a;
  let lib = Libcm.create net.Build.a cm () in
  (engine, net, cm, lib)

let test_destroy_reaps_and_returns_grants () =
  let engine, _net, cm, lib = make_proc () in
  let f_lib = Libcm.open_flow lib (flow_key ~sport:100 ()) in
  (* a kernel-client flow of the same destination shares the macroflow
     and must survive the process crash *)
  let f_kernel = Cm.open_flow cm (flow_key ~sport:101 ()) in
  Libcm.register_send lib f_lib (fun _ -> () (* sits on its grant *));
  Libcm.request lib f_lib;
  Engine.run_for engine (Time.ms 10);
  let mf = Cm.macroflow_of cm f_kernel in
  "grant parked before the crash" => (Macroflow.granted mf > 0);
  Libcm.destroy lib;
  "process dead" => not (Libcm.is_alive lib);
  let c = Cm.counters cm in
  Alcotest.(check int) "flow reaped" 1 c.Cm.reaps;
  Alcotest.(check (option int)) "reaped flow gone from the table" None
    (Cm.lookup cm (flow_key ~sport:100 ()));
  Alcotest.(check int) "granted-but-unsent bytes returned immediately" 0 (Macroflow.granted mf);
  "reclamation counted" => (Cm.released_grant_bytes cm > 0);
  "sibling flow survives" => (Cm.lookup cm (flow_key ~sport:101 ()) = Some f_kernel);
  "macroflow still alive" => Macroflow.alive mf;
  audit_clean "audit clean after crash" cm

let test_destroy_is_idempotent_and_fences_api () =
  let engine, _net, cm, lib = make_proc () in
  let fid = Libcm.open_flow lib (flow_key ()) in
  Engine.run_for engine (Time.ms 5);
  Libcm.destroy lib;
  Libcm.destroy lib;
  Alcotest.(check int) "second destroy reaps nothing more" 1 (Cm.counters cm).Cm.reaps;
  Alcotest.check_raises "cm_* calls raise after death"
    (Invalid_argument "Libcm: process is destroyed (control socket closed)") (fun () ->
      Libcm.request lib fid);
  audit_clean "audit clean after double destroy" cm

let test_destroy_cancels_callbacks () =
  let engine, _net, cm, lib = make_proc () in
  let fid = Libcm.open_flow lib (flow_key ()) in
  let fired = ref 0 in
  Libcm.register_send lib fid (fun _ -> incr fired);
  (* close the window so the request's grant is still pending when the
     process dies: it must never be delivered *)
  Cm.notify cm fid ~nbytes:mtu;
  Libcm.request lib fid;
  Libcm.destroy lib;
  Engine.run_for engine (Time.sec 1.);
  Alcotest.(check int) "no callback after destroy" 0 !fired

let test_reap_never_raises () =
  let engine = Engine.create () in
  let cm = Cm.create engine ~mtu () in
  let fid = Cm.open_flow cm (flow_key ()) in
  "reaps an open flow" => Cm.reap cm fid;
  "false on a closed flow" => not (Cm.reap cm fid);
  "false on an unknown flow" => not (Cm.reap cm 9999);
  audit_clean "audit clean after reaps" cm

(* ------------------------------------------------------------------ *)
(* Invariant auditor *)

let test_audit_reports_structure () =
  let engine = Engine.create () in
  let cm = Cm.create engine ~mtu () in
  let rep0 = Cm.Audit.run cm in
  "fresh cm is clean" => Cm.Audit.ok rep0;
  Alcotest.(check int) "no flows yet" 0 rep0.Cm.Audit.checked_flows;
  let f1 = Cm.open_flow cm (flow_key ~sport:100 ()) in
  let _f2 = Cm.open_flow cm (flow_key ~sport:101 ~dst:2 ()) in
  let rep = Cm.Audit.run cm in
  Alcotest.(check int) "two flows checked" 2 rep.Cm.Audit.checked_flows;
  Alcotest.(check int) "two macroflows checked" 2 rep.Cm.Audit.checked_macroflows;
  "clean under load" => Cm.Audit.ok rep;
  Cm.split cm f1;
  Cm.close_flow cm f1;
  "clean after split + close" => Cm.Audit.ok (Cm.Audit.run cm);
  let buf = Buffer.create 64 in
  let fmt = Format.formatter_of_buffer buf in
  Cm.Audit.pp fmt (Cm.Audit.run cm);
  Format.pp_print_flush fmt ();
  "pp renders" => (String.length (Buffer.contents buf) > 0)

let test_audit_lifecycle_under_churn () =
  (* open / grant / feedback / close churn across destinations must keep
     every structural invariant at every step *)
  let engine = Engine.create () in
  let cm = Cm.create engine ~mtu ~auditor:Cm.default_auditor () in
  for round = 0 to 5 do
    let fids =
      List.map
        (fun i -> Cm.open_flow cm (flow_key ~sport:(100 + i) ~dst:(1 + (i mod 2)) ()))
        [ 0; 1; 2; 3 ]
    in
    List.iter
      (fun fid ->
        Cm.register_send cm fid (fun f -> Cm.notify cm f ~nbytes:mtu);
        Cm.request cm fid)
      fids;
    Engine.run_for engine (Time.ms 50);
    List.iter
      (fun fid ->
        Cm.update cm fid ~nsent:mtu ~nrecd:mtu ~loss:Cm_types.No_loss ~rtt:(Time.ms 10) ())
      fids;
    "clean mid-churn" => Cm.Audit.ok (Cm.Audit.run cm);
    List.iter
      (fun fid -> if (fid + round) mod 2 = 0 then Cm.close_flow cm fid else ignore (Cm.reap cm fid))
      fids;
    "clean after churn round" => Cm.Audit.ok (Cm.Audit.run cm)
  done;
  let c = Cm.counters cm in
  Alcotest.(check int) "every open accounted" c.Cm.opens (c.Cm.closes + c.Cm.reaps)

(* ------------------------------------------------------------------ *)
(* App_faults schedule plumbing *)

let test_app_faults_compile_toggles_flags () =
  let engine = Engine.create () in
  let flags = Cm_dynamics.App_faults.behaviour () in
  let crashed = ref false in
  let targets =
    [
      Cm_dynamics.App_faults.target ~name:"app" ~crash:(fun () -> crashed := true) flags;
    ]
  in
  let sched =
    Cm_dynamics.App_faults.make ~name:"t"
      [
        { Cm_dynamics.App_faults.at = Time.sec 1.; target = "app";
          kind = Cm_dynamics.App_faults.Go_silent (Time.sec 2.) };
        { Cm_dynamics.App_faults.at = Time.sec 4.; target = "app";
          kind = Cm_dynamics.App_faults.Crash };
      ]
  in
  Cm_dynamics.App_faults.compile engine ~targets sched;
  Engine.run_for engine (Time.ms 500);
  "not yet silent" => not flags.Cm_dynamics.App_faults.silent;
  Engine.run_for engine (Time.sec 1.);
  "silent inside the window" => flags.Cm_dynamics.App_faults.silent;
  Engine.run_for engine (Time.sec 2.);
  "window cleared" => not flags.Cm_dynamics.App_faults.silent;
  "not yet crashed" => not !crashed;
  Engine.run_for engine (Time.sec 1.);
  "crash thunk ran" => !crashed;
  match Cm_dynamics.App_faults.fault_window sched with
  | Some (lo, hi) ->
      Alcotest.(check int) "window starts at first onset" (Time.sec 1.) lo;
      Alcotest.(check int) "crash never clears, window ends at last end" (Time.sec 4.) hi
  | None -> Alcotest.fail "schedule has a window"

let test_app_faults_validation () =
  Alcotest.check_raises "unknown target named"
    (Invalid_argument "App_faults t: unknown target \"ghost\" (have: app)") (fun () ->
      Cm_dynamics.App_faults.validate
        ~targets:[ Cm_dynamics.App_faults.target ~name:"app" (Cm_dynamics.App_faults.behaviour ()) ]
        (Cm_dynamics.App_faults.make ~name:"t"
           [
             { Cm_dynamics.App_faults.at = Time.zero; target = "ghost";
               kind = Cm_dynamics.App_faults.Crash };
           ]))

let test_app_faults_storm_deterministic () =
  let draw seed =
    let rng = Rng.create ~seed in
    let t =
      Cm_dynamics.App_faults.storm ~rng ~at:(Time.sec 5.) ~spread:(Time.sec 2.)
        [ "a"; "b"; "c" ]
    in
    List.map
      (fun (s : Cm_dynamics.App_faults.step) ->
        (s.Cm_dynamics.App_faults.at, s.Cm_dynamics.App_faults.target,
         s.Cm_dynamics.App_faults.kind))
      t.Cm_dynamics.App_faults.steps
  in
  "same seed, same storm" => (draw 7 = draw 7);
  "different seeds diverge" => (draw 7 <> draw 8)

(* ------------------------------------------------------------------ *)
(* The app_faults experiment family (end-to-end) *)

let test_storm_defends_and_recovers () =
  let open Experiments in
  let p = Exp_common.default_params in
  let results = App_faults.run p in
  List.iter
    (fun (r : App_faults.result) ->
      Printf.sprintf "%s: invariant audit clean" r.App_faults.r_case
      => (r.App_faults.r_audit_violations = []);
      Printf.sprintf "%s: honest flows at fair share (ratio %.2f)" r.App_faults.r_case
        r.App_faults.r_recovery_ratio
      => (r.App_faults.r_case = "baseline" || r.App_faults.r_recovery_ratio >= 0.9))
    results;
  let storm = List.find (fun r -> r.App_faults.r_case = "storm") results in
  "storm crasher reaped" => (storm.App_faults.r_counters.Cm.reaps = 1);
  "storm offenders quarantined" => (storm.App_faults.r_counters.Cm.quarantines >= 3);
  (match storm.App_faults.r_first_defense with
  | Some t -> "first defense inside the recovery budget" => (t < Time.sec 16.)
  | None -> Alcotest.fail "storm triggered no defense");
  "reclamation returned grant bytes" => (storm.App_faults.r_released_grant_bytes > 0)

let test_app_faults_json_deterministic () =
  let open Experiments in
  let p = Exp_common.default_params in
  let render () = Exp_common.Json.to_string (App_faults.to_json p (App_faults.run p)) in
  let j1 = render () and j2 = render () in
  Alcotest.(check string) "byte-identical JSON across runs" j1 j2;
  "document is non-trivial" => (String.length j1 > 500)

let () =
  Alcotest.run "endpoint_faults"
    [
      ( "watchdog",
        [
          Alcotest.test_case "off by default" `Quick test_watchdog_off_by_default;
          Alcotest.test_case "ages stale windows" `Quick test_watchdog_ages_stale_window;
          Alcotest.test_case "quiet under healthy feedback" `Quick
            test_watchdog_quiet_when_feedback_flows;
        ] );
      ( "auditor",
        [
          Alcotest.test_case "malformed rejected, not raised" `Quick
            test_malformed_update_rejected_not_raised;
          Alcotest.test_case "overclaim quarantined" `Quick test_overclaim_rejected_and_quarantined;
          Alcotest.test_case "hoarded grants reclaimed" `Quick
            test_hoarded_grants_reclaimed_and_scored;
          Alcotest.test_case "charge inflation quarantined" `Quick
            test_charge_inflation_quarantined;
          Alcotest.test_case "silence with charge scored" `Quick
            test_silent_flow_with_charge_scored;
        ] );
      ( "crash",
        [
          Alcotest.test_case "destroy reaps and returns grants" `Quick
            test_destroy_reaps_and_returns_grants;
          Alcotest.test_case "destroy idempotent, api fenced" `Quick
            test_destroy_is_idempotent_and_fences_api;
          Alcotest.test_case "destroy cancels callbacks" `Quick test_destroy_cancels_callbacks;
          Alcotest.test_case "reap never raises" `Quick test_reap_never_raises;
        ] );
      ( "audit",
        [
          Alcotest.test_case "reports structure" `Quick test_audit_reports_structure;
          Alcotest.test_case "clean under churn" `Quick test_audit_lifecycle_under_churn;
        ] );
      ( "app_faults",
        [
          Alcotest.test_case "compile toggles flags" `Quick test_app_faults_compile_toggles_flags;
          Alcotest.test_case "validation" `Quick test_app_faults_validation;
          Alcotest.test_case "storm deterministic" `Quick test_app_faults_storm_deterministic;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "storm defends and recovers" `Slow test_storm_defends_and_recovers;
          Alcotest.test_case "json deterministic" `Slow test_app_faults_json_deterministic;
        ] );
    ]
