(* Tests for libcm: the user-space CM library, its control-socket
   notification machinery, and the boundary-operation metering. *)

open Cm_util
open Eventsim
open Netsim
open Cm_spec

let ( => ) name cond = Alcotest.(check bool) name true cond

let make ?(mode = Libcm.Select_loop) ?(costs = Costs.zero) () =
  let engine = Engine.create () in
  let net = Build.pipe ~costs engine (Spec.pipe ~bw:1e7 ~lat:(Time.ms 5) ()) in
  let cm = Cm.create engine ~mtu:1000 () in
  Cm.attach cm net.Build.a;
  let lib = Libcm.create net.Build.a cm ~mode () in
  (engine, net, cm, lib)

let flow_key ?(sport = 100) () =
  Addr.flow
    ~src:(Addr.endpoint ~host:0 ~port:sport)
    ~dst:(Addr.endpoint ~host:1 ~port:200)
    ~proto:Addr.Udp ()

let test_api_mirrors_cm () =
  let _engine, _net, cm, lib = make () in
  let fid = Libcm.open_flow lib (flow_key ()) in
  Alcotest.(check int) "mtu via libcm" 1000 (Libcm.mtu lib fid);
  Alcotest.(check (option int)) "flow registered in kernel" (Some fid)
    (Cm.lookup cm (flow_key ()));
  Libcm.close_flow lib fid;
  Alcotest.(check (option int)) "closed in kernel" None (Cm.lookup cm (flow_key ()))

let test_send_callback_via_control_socket () =
  let engine, _net, _cm, lib = make () in
  let fid = Libcm.open_flow lib (flow_key ()) in
  let grants = ref 0 in
  Libcm.register_send lib fid (fun g ->
      Alcotest.(check int) "flow id delivered" fid g;
      incr grants;
      Libcm.notify lib fid ~nbytes:1000);
  Libcm.request lib fid;
  Engine.run_for engine (Time.ms 10);
  Alcotest.(check int) "dispatched through control socket" 1 !grants;
  "at least one wakeup" => (Libcm.dispatches lib >= 1)

let test_batched_dispatch_single_ioctl () =
  (* several grants ready at once are drained with one ready-flows ioctl;
     a non-zero select cost gives the wakeup a window to batch under *)
  let engine, _net, cm, lib = make ~costs:Costs.pentium3 () in
  let f1 = Libcm.open_flow lib (flow_key ~sport:100 ()) in
  let f2 = Libcm.open_flow lib (flow_key ~sport:101 ()) in
  let got = ref [] in
  Libcm.register_send lib f1 (fun g -> got := g :: !got);
  Libcm.register_send lib f2 (fun g -> got := g :: !got);
  (* open the kernel window so both grants fire in the same engine cycle *)
  Cm.update cm f1 ~nsent:2000 ~nrecd:2000 ~loss:Cm.Cm_types.No_loss ~rtt:(Time.ms 10) ();
  let meter = Libcm.meter lib in
  let ioctls_before = Libcm.Ops.count meter Libcm.Ops.Ioctl_query in
  Libcm.bulk_request lib [ f1; f2 ];
  Engine.run_for engine (Time.ms 10);
  Alcotest.(check int) "both flows called back" 2 (List.length !got);
  let ioctls = Libcm.Ops.count meter Libcm.Ops.Ioctl_query - ioctls_before in
  Alcotest.(check int) "one extraction ioctl for both grants" 1 ioctls

let test_update_callback_requeries_status () =
  let engine, _net, _cm, lib = make () in
  let fid = Libcm.open_flow lib (flow_key ()) in
  let statuses = ref [] in
  Libcm.register_update lib fid (fun st -> statuses := st :: !statuses);
  Libcm.set_thresh lib fid ~down:0.5 ~up:1.5;
  Libcm.update lib fid ~nsent:0 ~nrecd:0 ~loss:Cm.Cm_types.No_loss ~rtt:(Time.ms 20) ();
  Engine.run_for engine (Time.ms 10);
  Alcotest.(check int) "status callback delivered" 1 (List.length !statuses);
  match !statuses with
  | [ st ] -> "status carries a rate" => (st.Cm.Cm_types.rate_bps > 0.)
  | _ -> Alcotest.fail "expected one status"

let test_poll_mode_waits_for_tick () =
  let engine, _net, _cm, lib = make ~mode:(Libcm.Poll (Time.ms 50)) () in
  let fid = Libcm.open_flow lib (flow_key ()) in
  let grants = ref 0 in
  Libcm.register_send lib fid (fun _ ->
      incr grants;
      Libcm.notify lib fid ~nbytes:1000);
  Libcm.request lib fid;
  Engine.run_for engine (Time.ms 10);
  Alcotest.(check int) "not dispatched before the poll tick" 0 !grants;
  Engine.run_for engine (Time.ms 60);
  Alcotest.(check int) "dispatched on the tick" 1 !grants

let test_sigio_mode_dispatches () =
  let engine, _net, _cm, lib = make ~mode:Libcm.Sigio () in
  let fid = Libcm.open_flow lib (flow_key ()) in
  let grants = ref 0 in
  Libcm.register_send lib fid (fun _ ->
      incr grants;
      Libcm.notify lib fid ~nbytes:1000);
  Libcm.request lib fid;
  Engine.run_for engine (Time.ms 10);
  Alcotest.(check int) "sigio delivery" 1 !grants;
  "sigio counted" => (Libcm.Ops.count (Libcm.meter lib) Libcm.Ops.Sigio >= 1)

let test_failed_close_keeps_library_state () =
  (* regression: when the CM-side close raises (flow already gone in the
     kernel), the library must not half-forget the flow — its caches and
     ownership record stay intact, and the library remains usable *)
  let _engine, _net, cm, lib = make () in
  let fid = Libcm.open_flow lib (flow_key ()) in
  (* the flow disappears kernel-side behind the library's back *)
  Cm.close_flow cm fid;
  let raised =
    try
      Libcm.close_flow lib fid;
      false
    with Invalid_argument _ -> true
  in
  "failed close raises" => raised;
  (* library state untouched: the mtu cache still answers for the fid *)
  Alcotest.(check int) "mtu still served from the cache" 1000 (Libcm.mtu lib fid);
  (* a second failed close is equally safe *)
  let raised_again =
    try
      Libcm.close_flow lib fid;
      false
    with Invalid_argument _ -> true
  in
  "second failed close raises too" => raised_again;
  (* and the library is still fully usable for new flows *)
  let f2 = Libcm.open_flow lib (flow_key ~sport:101 ()) in
  Alcotest.(check int) "new flow opens fine" 1000 (Libcm.mtu lib f2);
  Libcm.close_flow lib f2;
  Alcotest.(check (option int)) "new flow closes fine" None
    (Cm.lookup cm (flow_key ~sport:101 ()))

let test_decline_grant_counted () =
  (* cm_notify(0) through the library: the grant returns to the window
     and the kernel counts the decline *)
  let engine, _net, cm, lib = make () in
  let fid = Libcm.open_flow lib (flow_key ()) in
  let declines = ref 0 in
  Libcm.register_send lib fid (fun _ ->
      incr declines;
      Libcm.notify lib fid ~nbytes:0);
  Libcm.request lib fid;
  Engine.run_for engine (Time.ms 10);
  Alcotest.(check int) "grant delivered and declined" 1 !declines;
  Alcotest.(check int) "kernel counted the decline" 1 (Cm.counters cm).Cm.declined_grants;
  let mf = Cm.macroflow_of cm fid in
  Alcotest.(check int) "window restored: nothing granted" 0 (Cm.Macroflow.granted mf);
  Alcotest.(check int) "window restored: nothing outstanding" 0 (Cm.Macroflow.outstanding mf);
  "notify ioctl metered" => (Libcm.Ops.count (Libcm.meter lib) Libcm.Ops.Ioctl_notify >= 1)

let test_meter_counts_and_charges () =
  let _engine, net, _cm, lib = make ~costs:Costs.pentium3 () in
  let fid = Libcm.open_flow lib (flow_key ()) in
  let meter = Libcm.meter lib in
  let busy0 = Cpu.total_busy (Host.cpu net.Build.a) in
  Libcm.request lib fid;
  Libcm.app_send lib ~bytes:1000;
  Libcm.app_recv lib ~bytes:100;
  Libcm.app_gettimeofday lib;
  Alcotest.(check int) "request counted" 1 (Libcm.Ops.count meter Libcm.Ops.Ioctl_request);
  Alcotest.(check int) "send counted" 1 (Libcm.Ops.count meter Libcm.Ops.Send);
  Alcotest.(check int) "recv counted" 1 (Libcm.Ops.count meter Libcm.Ops.Recv);
  Alcotest.(check int) "gettimeofday counted" 1 (Libcm.Ops.count meter Libcm.Ops.Gettimeofday);
  let busy = Cpu.total_busy (Host.cpu net.Build.a) - busy0 in
  let expected =
    let c = Costs.pentium3 in
    c.Costs.ioctl
    + Libcm.Ops.cost_of c ~bytes:1000 Libcm.Ops.Send
    + Libcm.Ops.cost_of c ~bytes:100 Libcm.Ops.Recv
    + c.Costs.gettimeofday
  in
  Alcotest.(check int) "cpu charged the cost-model time" expected busy

let test_meter_zero_costs_free () =
  let _engine, net, _cm, lib = make () in
  let fid = Libcm.open_flow lib (flow_key ()) in
  Libcm.request lib fid;
  Libcm.app_send lib ~bytes:1000;
  Alcotest.(check int) "no cpu time with zero costs" 0 (Cpu.total_busy (Host.cpu net.Build.a))

let test_ops_cost_model () =
  let c = Costs.pentium3 in
  Alcotest.(check int) "send includes copy"
    (c.Costs.syscall + Costs.copy c 1000)
    (Libcm.Ops.cost_of c ~bytes:1000 Libcm.Ops.Send);
  Alcotest.(check int) "ioctls equal"
    (Libcm.Ops.cost_of c Libcm.Ops.Ioctl_request)
    (Libcm.Ops.cost_of c Libcm.Ops.Ioctl_notify);
  "select grows with fds" => (Costs.select c ~nfds:10 > Costs.select c ~nfds:2);
  Alcotest.(check int) "all kinds listed" 9 (List.length Libcm.Ops.all)

let test_meter_reset () =
  let _engine, _net, _cm, lib = make () in
  let meter = Libcm.meter lib in
  Libcm.app_send lib ~bytes:10;
  Libcm.app_send lib ~bytes:10;
  Alcotest.(check int) "total before reset" 2 (Libcm.Ops.total meter);
  Libcm.Ops.reset meter;
  Alcotest.(check int) "total after reset" 0 (Libcm.Ops.total meter)

(* ---- destroy vs in-flight grants ----------------------------------------- *)

let audit_clean name cm =
  Alcotest.(check (list string)) name [] (Cm.Audit.run cm).Cm.Audit.violations

let test_destroy_races_inflight_grant () =
  (* destroy in the same tick the grant event is posted, before it is
     delivered: the callback must be suppressed and the granted bytes
     returned exactly once (the audit's ledger-skew check would flag a
     double return as negative skew and a leak as positive skew) *)
  let engine, _net, cm, lib = make () in
  let fid = Libcm.open_flow lib (flow_key ()) in
  let fired = ref 0 in
  Libcm.register_send lib fid (fun _ -> incr fired);
  Libcm.request lib fid;
  Libcm.destroy lib;
  Engine.run_for engine (Time.sec 2.);
  Alcotest.(check int) "callback suppressed after destroy" 0 !fired;
  Alcotest.(check (list int)) "flow reaped" [] (Cm.flows cm);
  audit_clean "grant ledger balanced (returned exactly once)" cm

let test_destroy_mid_dispatch_skips_rest () =
  (* two grants drained by one control-socket wakeup; the first callback
     destroys the process — the second flow's callback must not run, and
     its already-extracted grant must be returned exactly once (by the
     reap, not also by a notify) *)
  let engine, _net, cm, lib = make () in
  let f1 = Libcm.open_flow lib (flow_key ~sport:100 ()) in
  let f2 = Libcm.open_flow lib (flow_key ~sport:101 ()) in
  let f2_fired = ref 0 in
  let destroyed_in_cb = ref false in
  Libcm.register_send lib f1 (fun _ ->
      destroyed_in_cb := true;
      Libcm.destroy lib);
  Libcm.register_send lib f2 (fun _ -> incr f2_fired);
  (* open the window so both grants land in the same wakeup *)
  Cm.update cm f1 ~nsent:2000 ~nrecd:2000 ~loss:Cm.Cm_types.No_loss ~rtt:(Time.ms 10) ();
  Libcm.bulk_request lib [ f1; f2 ];
  Engine.run_for engine (Time.sec 2.);
  "first callback ran and destroyed the process" => !destroyed_in_cb;
  Alcotest.(check int) "second callback suppressed" 0 !f2_fired;
  Alcotest.(check (list int)) "both flows reaped" [] (Cm.flows cm);
  audit_clean "grant ledger balanced after mid-dispatch destroy" cm

let () =
  Alcotest.run "libcm"
    [
      ( "api",
        [
          Alcotest.test_case "mirrors kernel cm" `Quick test_api_mirrors_cm;
          Alcotest.test_case "send callback via control socket" `Quick
            test_send_callback_via_control_socket;
          Alcotest.test_case "batched grant extraction" `Quick test_batched_dispatch_single_ioctl;
          Alcotest.test_case "update callback re-queries" `Quick
            test_update_callback_requeries_status;
          Alcotest.test_case "failed close keeps library state" `Quick
            test_failed_close_keeps_library_state;
          Alcotest.test_case "declined grant counted" `Quick test_decline_grant_counted;
        ] );
      ( "destroy",
        [
          Alcotest.test_case "races in-flight grant" `Quick test_destroy_races_inflight_grant;
          Alcotest.test_case "mid-dispatch destroy skips rest" `Quick
            test_destroy_mid_dispatch_skips_rest;
        ] );
      ( "modes",
        [
          Alcotest.test_case "poll mode" `Quick test_poll_mode_waits_for_tick;
          Alcotest.test_case "sigio mode" `Quick test_sigio_mode_dispatches;
        ] );
      ( "metering",
        [
          Alcotest.test_case "counts and charges" `Quick test_meter_counts_and_charges;
          Alcotest.test_case "zero costs are free" `Quick test_meter_zero_costs_free;
          Alcotest.test_case "cost model" `Quick test_ops_cost_model;
          Alcotest.test_case "reset" `Quick test_meter_reset;
        ] );
    ]
