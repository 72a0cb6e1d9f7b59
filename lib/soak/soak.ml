open Cm_util
open Eventsim
open Netsim
module Spec = Cm_spec.Spec
module Check = Cm_spec.Check
module Build = Cm_spec.Build
module Launch = Cm_spec.Launch
module Scenario = Cm_dynamics.Scenario
module Control_faults = Cm_dynamics.Control_faults

(* Seeded chaos-soak harness: a fuzzer that draws a well-formed random
   spec (dumbbell topology + bulk flows and a cmproto session, the
   qcheck generator shape from the spec test suite) composed with random network, control-plane and
   application fault schedules, runs it with the CM fully defended under
   a battery of invariant oracles, and — when an oracle breaks — shrinks
   the case to a minimal configuration and prints a one-line reproducer
   ([cm_expt soak --seed N]).

   The oracles are structural, not statistical: the auditor sweep (which
   includes window conservation and the grant-ledger skew), flow/timer
   leak checks after teardown, an engine-flood bound, and run-twice byte
   determinism of a digest covering every counter that matters.  The
   [--canary] mode builds the run's CMs with [~canary_grant_leak], which
   re-introduces a grant leak, to prove the pipeline catches a real
   accounting bug. *)

(* ---- case configuration ------------------------------------------------- *)

type net_fault = { nf_at_s : float; nf_dur_s : float; nf_kind : int }

type ctrl_fault = {
  cf_at_s : float;
  cf_dur_s : float;
  cf_drop : float;
  cf_dup : float;
  cf_jitter_ms : int;
}

type cfg = {
  c_seed : int;
  c_n_l : int;  (** left-side hosts (bulk sources) *)
  c_bw_mbps : int;
  c_lat_ms : int;
  c_queue : int;
  c_bulk_kb : int;
  c_duration_s : float;
  c_net_faults : net_fault list;  (** on the bottleneck, spaced to never overlap *)
  c_ctrl_fault : ctrl_fault option;  (** on the cmproto sender host *)
  c_crash_restart : bool;  (** receiver-agent crash/restart mid-run *)
  c_hoard_crash : bool;  (** a libcm flow hoards grants then dies *)
}

(* The generator mirrors the spec suite's well-formed dumbbell shape:
   everything it can draw must elaborate clean, so "spec checks clean" is
   itself an oracle. *)
let gen_cfg seed =
  QCheck.Gen.(
    let* n_l = int_range 1 3 in
    let* bw_mbps = int_range 4 40 in
    let* lat_ms = int_range 1 25 in
    let* queue = int_range 10 100 in
    let* bulk_kb = int_range 8 128 in
    let* duration_s = int_range 8 14 in
    let* n_net = int_range 0 2 in
    let* kinds = list_repeat n_net (int_range 0 2) in
    let* has_ctrl = bool in
    let* drop10 = int_range 2 9 in
    let* dup10 = int_range 0 3 in
    let* jitter_ms = int_range 0 25 in
    let* crash_restart = bool in
    let* hoard_crash = bool in
    return
      {
        c_seed = seed;
        c_n_l = n_l;
        c_bw_mbps = bw_mbps;
        c_lat_ms = lat_ms;
        c_queue = queue;
        c_bulk_kb = bulk_kb;
        c_duration_s = float_of_int duration_s;
        c_net_faults =
          List.mapi
            (fun i kind ->
              { nf_at_s = 1. +. (4. *. float_of_int i); nf_dur_s = 1.5; nf_kind = kind })
            kinds;
        c_ctrl_fault =
          (if has_ctrl then
             Some
               {
                 cf_at_s = 3.;
                 cf_dur_s = 3.;
                 cf_drop = float_of_int drop10 /. 10.;
                 cf_dup = float_of_int dup10 /. 10.;
                 cf_jitter_ms = jitter_ms;
               }
           else None);
        c_crash_restart = crash_restart;
        c_hoard_crash = hoard_crash;
      })

let cfg_of_seed seed =
  QCheck.Gen.generate1 ~rand:(Random.State.make [| seed |]) (gen_cfg seed)

let lhost_names c = List.init c.c_n_l (Printf.sprintf "l%d")

let spec_of_cfg c =
  let lhosts = lhost_names c in
  let bw = float_of_int c.c_bw_mbps *. 1e6 in
  let lat = Time.ms c.c_lat_ms in
  let queue = c.c_queue in
  let net_steps =
    List.map
      (fun nf ->
        let at = Time.sec nf.nf_at_s in
        let dur = Time.sec nf.nf_dur_s in
        match nf.nf_kind with
        | 0 -> (at, Scenario.Outage dur)
        | 1 ->
            (at, Scenario.Loss_burst { spec = Scenario.Loss_bernoulli 0.08; duration = dur })
        | _ ->
            ( at,
              Scenario.Delay_spike { extra = Time.ms 30; jitter = Time.ms 5; duration = dur }
            ))
      c.c_net_faults
  in
  let ctrl_steps =
    match c.c_ctrl_fault with
    | None -> []
    | Some cf ->
        [
          ( Time.sec cf.cf_at_s,
            Scenario.Control_fault
              {
                profile =
                  {
                    Control_faults.drop = cf.cf_drop;
                    dup = cf.cf_dup;
                    delay = 0;
                    jitter = Time.ms cf.cf_jitter_ms;
                  };
                duration = Time.sec cf.cf_dur_s;
              } );
        ]
  in
  Spec.(
    par
      ([
         par (List.map node lhosts);
         cm ~defended:true lhosts;
         node "r0";
         router "x";
         router "y";
         par (List.map (fun h -> duplex ~queue ~bw ~lat h "x") lhosts);
         duplex ~name:"bottleneck" ~queue ~bw ~lat "x" "y";
         duplex ~queue ~bw ~lat "y" "r0";
         flows ~name:"bulk" ~src:lhosts ~dst:"r0" ~port:5000
           ~app:(bulk ~bytes:(c.c_bulk_kb * 1024))
           ~start:(Time.ms 200) ~stagger:(Time.ms 50) ();
         flows ~name:"session" ~src:[ "l0" ] ~dst:"r0" ~port:7000
           ~app:(cmproto_session ~packet_bytes:1000 ~window:32 ~ack_every:2 ~pump:(Time.ms 5) ())
           ();
       ]
      @ (match net_steps with [] -> [] | steps -> [ faults ~target:"bottleneck" steps ])
      @ match ctrl_steps with [] -> [] | steps -> [ faults ~target:"l0" steps ]))

(* ---- one run under the oracles ------------------------------------------ *)

type outcome = { o_failures : string list; o_digest : string }

let run_one ?(canary = false) c =
  let hoard_crash = c.c_hoard_crash || canary in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> if not (List.mem s !failures) then failures := !failures @ [ s ]) fmt in
  match Check.elaborate (spec_of_cfg c) with
  | Error ds ->
      List.iter (fun d -> fail "elaborate: %s" (Check.diag_str d)) ds;
      { o_failures = !failures; o_digest = "" }
  | Ok ir ->
      let engine = Engine.create () in
      let rng = Rng.create ~seed:c.c_seed in
      let net = Build.instantiate ~rng ~canary_grant_leak:canary engine ir in
      (* control injectors before any control-consuming agent filter *)
      let controls = Build.control_injectors net ~classify:Cmproto.is_control in
      let sc = Build.scenario ~name:"soak" ir in
      Scenario.compile engine ~rng:(Rng.split rng) ~links:(Build.links_alist net) ~controls sc;
      (* every left host's defended CM, node order, for the sweep *)
      let cms = List.map (Build.cm net) (lhost_names c) in
      let l0 = Build.host net "l0" in
      let r0 = Build.host net "r0" in
      let cm = Build.cm net "l0" in
      (* the bulk flows and the cmproto session, from the spec's flow groups *)
      let running = Launch.run net () in
      let session_group = Launch.find running "session" in
      let { Launch.session; agent; receiver; _ } = Launch.session session_group 0 in
      let duration = Time.sec c.c_duration_s in
      (* receiver-agent crash/restart (control-plane state loss) *)
      if c.c_crash_restart then begin
        ignore
          (Engine.schedule_at engine
             (Time.sec (0.4 *. c.c_duration_s))
             (fun () -> Cmproto.Receiver_agent.crash receiver));
        ignore
          (Engine.schedule_at engine
             (Time.sec (0.55 *. c.c_duration_s))
             (fun () -> Cmproto.Receiver_agent.restart receiver))
      end;
      (* app fault: a libcm flow that hoards every grant, then its process
         dies — the close path must return (or, under the canary, leak)
         the hoard *)
      let hoard_fid = ref None in
      if hoard_crash then begin
        let hoard_at = Time.sec (0.35 *. c.c_duration_s) in
        ignore
          (Engine.schedule_at engine hoard_at (fun () ->
               let lib = Libcm.create l0 cm () in
               let socket = Udp.Socket.create l0 () in
               let dst = Addr.endpoint ~host:(Host.id r0) ~port:7100 in
               Udp.Socket.connect socket dst;
               let key = Addr.flow ~src:(Udp.Socket.local socket) ~dst ~proto:Addr.Udp () in
               let fid = Libcm.open_flow lib key in
               hoard_fid := Some fid;
               Libcm.register_send lib fid (fun _ -> () (* sit on the grant *));
               for _ = 1 to 16 do
                 Libcm.request lib fid
               done;
               ignore
                 (Engine.schedule_after engine (Time.ms 300) (fun () ->
                      Libcm.destroy lib;
                      Udp.Socket.close socket))))
      end;
      (* oracle: auditor sweep every 500 ms across every CM *)
      let audit_runs = ref 0 in
      let rec audit () =
        incr audit_runs;
        List.iter
          (fun cm ->
            let rep = Cm.Audit.run cm in
            List.iter (fun v -> fail "audit: %s" v) rep.Cm.Audit.violations)
          cms;
        ignore (Engine.schedule_after engine (Time.ms 500) audit)
      in
      ignore (Engine.schedule_at engine (Time.ms 250) audit);
      Engine.run_for engine duration;
      (* teardown, then a grace window for in-flight events to settle *)
      Launch.stop session_group;
      Cmproto.Session.close session;
      let session_fid = Cmproto.Session.flow session in
      Engine.run_for engine (Time.sec 2.);
      (* oracle: final audit, every CM *)
      List.iter
        (fun cm ->
          let rep = Cm.Audit.run cm in
          List.iter (fun v -> fail "audit: %s" v) rep.Cm.Audit.violations)
        cms;
      (* oracle: closed flows must leave the flow table *)
      if List.mem session_fid (Cm.flows cm) then
        fail "flow-leak: cmproto session flow %d still open after close" session_fid;
      (match !hoard_fid with
      | Some fid when List.mem fid (Cm.flows cm) ->
          fail "flow-leak: destroyed hoarder flow %d still open" fid
      | _ -> ());
      (* oracle: the engine must not flood — a runaway timer or event loop
         shows up as unbounded pending work after teardown *)
      let pending = Engine.pending engine in
      if pending > 512 then fail "engine-flood: %d events pending after teardown" pending;
      (* digest: every counter that matters, in deterministic order — the
         run-twice oracle byte-compares two of these *)
      let bstats = Link.stats (Build.link net "bottleneck") in
      let cm_digest =
        String.concat ";"
          (List.map
             (fun cm ->
               let t = Cm.counters cm in
               Printf.sprintf "o%dc%dg%du%dn%dq%dr%d" t.Cm.opens t.Cm.closes t.Cm.grants
                 t.Cm.updates t.Cm.notifies t.Cm.quarantines t.Cm.reaps)
             cms)
      in
      let d = Cmproto.Sender_agent.counters agent in
      let digest =
        Printf.sprintf
          "sent=%d/%dB fb=%d dup=%d stale=%d echo=%d rsy=%d sol=%d rx=%d/%d drop=%d link=%d/%d \
           done=%d cms=[%s] audits=%d pend=%d"
          (Cmproto.Session.packets_sent session)
          (Cmproto.Session.bytes_sent session)
          d.Cmproto.Sender_agent.feedback_received d.Cmproto.Sender_agent.dup_feedback
          d.Cmproto.Sender_agent.stale_feedback d.Cmproto.Sender_agent.bad_echoes
          d.Cmproto.Sender_agent.resyncs
          (Cmproto.Session.solicits_sent session)
          (Cmproto.Receiver_agent.data_seen receiver)
          (Cmproto.Receiver_agent.feedback_sent receiver)
          (Cmproto.Receiver_agent.dropped_while_down receiver)
          bstats.Link.delivered_pkts bstats.Link.queue_drops
          (Launch.done_count (Launch.find running "bulk"))
          cm_digest !audit_runs pending
      in
      { o_failures = !failures; o_digest = digest }

(* ---- shrinking ----------------------------------------------------------- *)

(* Greedy structural shrink: try dropping whole fault elements first,
   then scale the workload down; adopt any candidate that still fails and
   repeat until the case is locally minimal or the run budget is spent. *)
let shrink_candidates c =
  let drop_nth l n = List.filteri (fun i _ -> i <> n) l in
  List.concat
    [
      List.init (List.length c.c_net_faults) (fun i ->
          { c with c_net_faults = drop_nth c.c_net_faults i });
      (match c.c_ctrl_fault with Some _ -> [ { c with c_ctrl_fault = None } ] | None -> []);
      (if c.c_crash_restart then [ { c with c_crash_restart = false } ] else []);
      (if c.c_hoard_crash then [ { c with c_hoard_crash = false } ] else []);
      (if c.c_n_l > 1 then [ { c with c_n_l = c.c_n_l - 1 } ] else []);
      (if c.c_bulk_kb > 8 then [ { c with c_bulk_kb = c.c_bulk_kb / 2 } ] else []);
      (if c.c_duration_s > 8. then [ { c with c_duration_s = 8. } ] else []);
    ]

let still_fails ?canary c =
  let a = run_one ?canary c in
  a.o_failures <> []
  ||
  let b = run_one ?canary c in
  a.o_digest <> b.o_digest

let shrink ?canary c =
  let budget = ref 24 in
  let rec go c =
    let next =
      List.find_opt
        (fun cand ->
          if !budget <= 0 then false
          else begin
            decr budget;
            still_fails ?canary cand
          end)
        (shrink_candidates c)
    in
    match next with Some c' -> go c' | None -> c
  in
  go c

(* ---- driver -------------------------------------------------------------- *)

type failure = {
  f_seed : int;
  f_cfg : cfg;
  f_shrunk : cfg;
  f_failures : string list;  (** oracle breaches of the original case *)
}

let run_seed ?(canary = false) seed =
  let cfg = cfg_of_seed seed in
  let a = run_one ~canary cfg in
  let failures =
    if a.o_failures <> [] then a.o_failures
    else
      let b = run_one ~canary cfg in
      if a.o_digest <> b.o_digest then [ "run-twice-determinism: digests differ" ] else []
  in
  if failures = [] then None
  else Some { f_seed = seed; f_cfg = cfg; f_shrunk = shrink ~canary cfg; f_failures = failures }

let repro_line ?(canary = false) f =
  Printf.sprintf "REPRO: cm_expt soak --seed %d%s" f.f_seed (if canary then " --canary" else "")

let cfg_json c =
  let open Json in
  Obj
    [
      ("seed", Int c.c_seed);
      ("left_hosts", Int c.c_n_l);
      ("bw_mbps", Int c.c_bw_mbps);
      ("lat_ms", Int c.c_lat_ms);
      ("queue_pkts", Int c.c_queue);
      ("bulk_kb", Int c.c_bulk_kb);
      ("duration_s", Float c.c_duration_s);
      ( "net_faults",
        List
          (List.map
             (fun nf ->
               Obj
                 [
                   ("at_s", Float nf.nf_at_s);
                   ("duration_s", Float nf.nf_dur_s);
                   ( "kind",
                     Str
                       (match nf.nf_kind with
                       | 0 -> "outage"
                       | 1 -> "loss_burst"
                       | _ -> "delay_spike") );
                 ])
             c.c_net_faults) );
      ( "control_fault",
        match c.c_ctrl_fault with
        | None -> Null
        | Some cf ->
            Obj
              [
                ("at_s", Float cf.cf_at_s);
                ("duration_s", Float cf.cf_dur_s);
                ("drop", Float cf.cf_drop);
                ("dup", Float cf.cf_dup);
                ("jitter_ms", Int cf.cf_jitter_ms);
              ] );
      ("crash_restart", Bool c.c_crash_restart);
      ("hoard_crash", Bool c.c_hoard_crash);
    ]

let failure_json ?(canary = false) f =
  let open Json in
  Obj
    [
      ("seed", Int f.f_seed);
      ("canary", Bool canary);
      ("failures", List (List.map (fun s -> Str s) f.f_failures));
      ("config", cfg_json f.f_cfg);
      ("shrunk", cfg_json f.f_shrunk);
    ]
