open Cm_util
open Eventsim
open Netsim
open Cm_spec

(* ------------------------------------------------------------------ *)
(* Scheduler ablation *)

type sched_row = {
  scheduler : string;
  flow_a_bytes : int;
  flow_b_bytes : int;
  share_ratio : float;
}

(* two backlogged CC-UDP flows a → b under a's CM with [scheduler] *)
let sched_spec scheduler =
  Spec.(
    pipe ~bw:4e6 ~lat:(Time.ms 20) ()
    @ cm ~mtu:1000 ~scheduler [ "a" ]
    @ flows ~name:"pair" ~src:[ "a"; "a" ] ~dst:"b" ~port:7001
        ~app:(datagram ~refill:(Time.ms 50))
        ())

let run_one_sched params ~name ~scheduler ~weight_a =
  Exp_common.with_system params @@ fun sys ->
  let engine = Exp_common.engine sys in
  let rng = Rng.create ~seed:params.Exp_common.seed in
  let net = Build.pipe ~rng engine (sched_spec scheduler) in
  let cm = Build.cm net.Build.net "a" in
  Exp_common.watch sys ~links:[ ("ab", net.Build.ab); ("ba", net.Build.ba) ] ~cm ();
  let running = Launch.run net.Build.net () in
  let sock i = (Launch.datagrams (Launch.find running "pair") i).Launch.socket in
  let sock_a = sock 0 and sock_b = sock 1 in
  (match weight_a with
  | Some w -> Cm.set_weight cm (Udp.Cc_socket.flow sock_a) w
  | None -> ());
  Engine.run_for engine (Time.sec 20.);
  let a = Udp.Cc_socket.bytes_sent sock_a and b = Udp.Cc_socket.bytes_sent sock_b in
  {
    scheduler = name;
    flow_a_bytes = a;
    flow_b_bytes = b;
    share_ratio = float_of_int a /. float_of_int (Stdlib.max 1 b);
  }

let run_scheduler params =
  [
    run_one_sched params ~name:"round-robin" ~scheduler:Cm.Scheduler.round_robin ~weight_a:None;
    run_one_sched params ~name:"weighted 3:1" ~scheduler:Cm.Scheduler.weighted
      ~weight_a:(Some 3.0);
  ]

(* ------------------------------------------------------------------ *)
(* Controller ablation *)

type ctrl_row = { controller : string; mean_kbps : float; cv : float }

(* one backlogged CC-UDP flow a → b under a's CM with [controller] *)
let ctrl_spec controller =
  Spec.(
    pipe ~queue:30 ~bw:8e6 ~lat:(Time.ms 25) ()
    @ cm ~mtu:1000 ~controller [ "a" ]
    @ flows ~name:"flow" ~src:[ "a" ] ~dst:"b" ~port:7001 ~app:(datagram ~refill:(Time.ms 20))
        ())

let run_one_ctrl params ~name ~controller =
  Exp_common.with_system params @@ fun sys ->
  let engine = Exp_common.engine sys in
  let rng = Rng.create ~seed:params.Exp_common.seed in
  let net = Build.pipe ~rng engine (ctrl_spec controller) in
  let cm = Build.cm net.Build.net "a" in
  Exp_common.watch sys ~links:[ ("ab", net.Build.ab); ("ba", net.Build.ba) ] ~cm ();
  let running = Launch.run net.Build.net () in
  let sock = (Launch.datagrams (Launch.find running "flow") 0).Launch.socket in
  (* sample the delivered rate every 100 ms after 2 s of warmup *)
  let samples = Stats.create () in
  let last_bytes = ref 0 in
  let sampler =
    Timer.create engine ~callback:(fun () ->
        let b = Udp.Cc_socket.bytes_sent sock in
        if Time.to_float_s (Engine.now engine) > 2. then
          Stats.add samples (float_of_int (b - !last_bytes) /. 0.1 /. 1000.);
        last_bytes := b)
  in
  Timer.start_periodic sampler (Time.ms 100);
  Engine.run_for engine (Time.sec 30.);
  Timer.stop sampler;
  let mean = Stats.mean samples in
  { controller = name; mean_kbps = mean; cv = Stats.stddev samples /. mean }

let run_controller params =
  [
    run_one_ctrl params ~name:"AIMD" ~controller:(Cm.Controller.aimd ());
    run_one_ctrl params ~name:"IIAD (k=1,l=0)" ~controller:(Cm.Controller.iiad ());
    run_one_ctrl params ~name:"SQRT (k=.5,l=.5)" ~controller:(Cm.Controller.sqrt_ctl ());
    run_one_ctrl params ~name:"equation (TFRC)" ~controller:(Cm.Controller.equation ());
  ]

(* ------------------------------------------------------------------ *)
(* Sharing ablation *)

type share_row = {
  setup : string;
  mean_completion_ms : float;
  max_completion_ms : float;
  total_retransmits : int;
}

let share_spec = Spec.pipe ~queue:40 ~bw:6e6 ~lat:(Time.ms 25) ()

let run_one_share params ~name ~use_cm =
  Exp_common.with_system params @@ fun sys ->
  let engine = Exp_common.engine sys in
  let rng = Rng.create ~seed:params.Exp_common.seed in
  let net =
    Build.pipe ~rng engine
      (if use_cm then Spec.par [ share_spec; Spec.cm [ "b" ] ] else share_spec)
  in
  let cm = if use_cm then Some (Build.cm net.Build.net "b") else None in
  Exp_common.watch sys ~links:[ ("ba", net.Build.ba); ("ab", net.Build.ab) ] ?cm ();
  let retransmits = ref 0 in
  let _server =
    Tcp.Conn.listen net.Build.b ~port:80 ?driver:(Build.driver net.Build.net net.Build.b)
      ~on_accept:(fun conn ->
        let responded = ref false in
        Tcp.Conn.on_receive conn (fun _ ->
            if not !responded then begin
              responded := true;
              Tcp.Conn.send conn (256 * 1024);
              Tcp.Conn.close conn
            end);
        Tcp.Conn.on_closed conn (fun () ->
            retransmits := !retransmits + (Tcp.Conn.stats conn).Tcp.Conn.retransmits))
      ()
  in
  let results = ref [] in
  Cm_apps.Web.concurrent_fetches net.Build.a
    ~dst:(Addr.endpoint ~host:1 ~port:80)
    ~expect_bytes:(256 * 1024) ~count:4
    ~on_done:(fun rs -> results := rs)
    ();
  Engine.run_for engine (Time.sec 30.);
  let durations =
    List.map (fun r -> Time.to_float_ms r.Cm_apps.Web.duration) !results
  in
  match durations with
  | [] -> failwith "ablation_share: fetches did not complete"
  | ds ->
      {
        setup = name;
        mean_completion_ms = List.fold_left ( +. ) 0. ds /. float_of_int (List.length ds);
        max_completion_ms = List.fold_left Float.max 0. ds;
        total_retransmits = !retransmits;
      }

let run_sharing params =
  [
    run_one_share params ~name:"independent (4x TCP/Linux)" ~use_cm:false;
    run_one_share params ~name:"shared macroflow (4x TCP/CM)" ~use_cm:true;
  ]

(* ------------------------------------------------------------------ *)

let print_scheduler rows =
  Exp_common.print_header "Ablation: macroflow scheduler (two backlogged CC-UDP flows, 20 s)";
  Exp_common.print_row (Printf.sprintf "%-14s %12s %12s %8s" "scheduler" "flowA(B)" "flowB(B)" "A/B");
  List.iter
    (fun r ->
      Exp_common.print_row
        (Printf.sprintf "%-14s %12d %12d %8.2f" r.scheduler r.flow_a_bytes r.flow_b_bytes
           r.share_ratio))
    rows

let print_controller rows =
  Exp_common.print_header "Ablation: congestion controller family (8 Mbps bottleneck, 30 s)";
  Exp_common.print_row (Printf.sprintf "%-18s %14s %14s" "controller" "mean KB/s" "rate CV");
  List.iter
    (fun r ->
      Exp_common.print_row (Printf.sprintf "%-18s %14.1f %14.3f" r.controller r.mean_kbps r.cv))
    rows

let print_sharing rows =
  Exp_common.print_header "Ablation: 4 concurrent fetches, independent vs shared congestion state";
  Exp_common.print_row
    (Printf.sprintf "%-30s %12s %12s %10s" "setup" "mean ms" "max ms" "rexmits");
  List.iter
    (fun r ->
      Exp_common.print_row
        (Printf.sprintf "%-30s %12.1f %12.1f %10d" r.setup r.mean_completion_ms
           r.max_completion_ms r.total_retransmits))
    rows

(* ------------------------------------------------------------------ *)
(* Fairness ablation: Jain's index across a mixed ensemble *)

type fairness_row = {
  mix : string;
  per_flow_kb : int list;
  jain : float;  (** Jain's fairness index: 1.0 = perfectly fair. *)
}

let jain_index xs =
  let n = float_of_int (List.length xs) in
  let s = List.fold_left ( +. ) 0. xs in
  let s2 = List.fold_left (fun acc x -> acc +. (x *. x)) 0. xs in
  if s2 = 0. then 1. else s *. s /. (n *. s2)

let fairness_spec =
  Spec.(par [ pipe ~queue:60 ~loss:0.002 ~bw:8e6 ~lat:(Time.ms 20) (); cm [ "a" ] ])

let run_one_fairness params ~name ~cm_flows ~native_flows =
  Exp_common.with_system params @@ fun sys ->
  let engine = Exp_common.engine sys in
  let rng = Rng.create ~seed:params.Exp_common.seed in
  let net = Build.pipe ~rng engine fairness_spec in
  let cm = Build.cm net.Build.net "a" in
  Exp_common.watch sys ~links:[ ("ab", net.Build.ab); ("ba", net.Build.ba) ] ~cm ();
  let totals = ref [] in
  let start_flow ~port ~driver =
    let delivered = ref 0 in
    totals := delivered :: !totals;
    let _l =
      Tcp.Conn.listen net.Build.b ~port
        ~on_accept:(fun c -> Tcp.Conn.on_receive c (fun n -> delivered := !delivered + n))
        ()
    in
    let c = Tcp.Conn.connect net.Build.a ~dst:(Addr.endpoint ~host:1 ~port) ~driver () in
    Tcp.Conn.send c (1 lsl 27)
  in
  for i = 0 to native_flows - 1 do
    start_flow ~port:(80 + i) ~driver:Tcp.Conn.Native
  done;
  for i = 0 to cm_flows - 1 do
    start_flow ~port:(180 + i) ~driver:(Tcp.Conn.Cm_driven cm)
  done;
  Engine.run_for engine (Time.sec 30.);
  let per_flow = List.rev_map (fun r -> !r) !totals in
  {
    mix = name;
    per_flow_kb = List.map (fun b -> b / 1000) per_flow;
    jain = jain_index (List.map float_of_int per_flow);
  }

let run_fairness params =
  [
    run_one_fairness params ~name:"4 native TCP" ~cm_flows:0 ~native_flows:4;
    run_one_fairness params ~name:"4 TCP/CM (one macroflow)" ~cm_flows:4 ~native_flows:0;
    run_one_fairness params ~name:"2 native + 2 TCP/CM" ~cm_flows:2 ~native_flows:2;
  ]

let print_fairness rows =
  Exp_common.print_header
    "Ablation: fairness across flow ensembles (8 Mbit/s bottleneck, 30 s, Jain index)";
  Exp_common.print_row (Printf.sprintf "%-26s %8s   %s" "mix" "Jain" "per-flow KB");
  List.iter
    (fun r ->
      Exp_common.print_row
        (Printf.sprintf "%-26s %8.3f   [%s]" r.mix r.jain
           (String.concat " " (List.map string_of_int r.per_flow_kb))))
    rows
