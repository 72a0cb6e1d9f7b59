(* cm_expt — command-line runner for the paper-reproduction experiments.

   One subcommand per table/figure (fig3 … fig10, table1), plus the §4.1
   microbenchmark and the three ablation benches, plus [all]. *)

open Cmdliner

let params ?(prof = false) ?recorder seed full =
  { Experiments.Exp_common.default_params with seed; full; prof; recorder }

let seed_arg =
  let doc = "Seed for every random number generator (runs are deterministic)." in
  Arg.(value & opt int 42 & info [ "s"; "seed" ] ~docv:"SEED" ~doc)

let full_arg =
  let doc =
    "Run the long variants (e.g. the 10^6-buffer point of Figs. 4-5 and the 200k-packet Fig. 6)."
  in
  Arg.(value & flag & info [ "full" ] ~doc)

let prof_arg =
  let doc =
    "Arm the event-core profiler and print its summary (per-category dispatch counts, \
     sampled wall attribution, GC deltas, wheel/pool occupancy) to stderr after each \
     simulated system finishes.  Stdout stays byte-identical: wall clock is nondeterministic."
  in
  Arg.(value & flag & info [ "prof" ] ~doc)

let recorder_arg =
  let doc =
    "Attach an always-on bounded flight recorder (ring of the last 4096 trace events) to \
     families that support it and dump the ring as JSONL into $(docv) when a defense fires, \
     an audit breach appears, or an exception escapes the event loop."
  in
  Arg.(value & opt (some string) None & info [ "recorder" ] ~docv:"DIR" ~doc)

let run_fig3 p = Experiments.Fig3.print (Experiments.Fig3.run p)
let run_fig4_5 p = Experiments.Fig4_5.print (Experiments.Fig4_5.run p)
let run_fig6 p = Experiments.Fig6.print (Experiments.Fig6.run p)
let run_table1 p = Experiments.Fig6.print_table1 (Experiments.Fig6.run_table1 p)
let run_fig7 p = Experiments.Fig7.print (Experiments.Fig7.run p)
let run_fig8 p = Experiments.Fig8_10.print (Experiments.Fig8_10.run_fig8 p)
let run_fig9 p = Experiments.Fig8_10.print (Experiments.Fig8_10.run_fig9 p)
let run_fig10 p = Experiments.Fig8_10.print (Experiments.Fig8_10.run_fig10 p)
let run_micro p = Experiments.Micro.print (Experiments.Micro.run p)

let run_abl_sched p =
  Experiments.Ablations.print_scheduler (Experiments.Ablations.run_scheduler p)

let run_abl_ctrl p =
  Experiments.Ablations.print_controller (Experiments.Ablations.run_controller p)

let run_abl_share p = Experiments.Ablations.print_sharing (Experiments.Ablations.run_sharing p)
let run_phttp p = Experiments.Sec6_phttp.print (Experiments.Sec6_phttp.run p)
let run_cmproto p = Experiments.Ext_cmproto.print (Experiments.Ext_cmproto.run p)
let run_content p = Experiments.Content_adapt.print (Experiments.Content_adapt.run p)
let run_merge p = Experiments.Ext_merge.print (Experiments.Ext_merge.run p)
let run_fair p = Experiments.Ablations.print_fairness (Experiments.Ablations.run_fairness p)
let run_scenarios p = Experiments.Scenarios.print p (Experiments.Scenarios.run p)
let run_app_faults p = Experiments.App_faults.print p (Experiments.App_faults.run p)
let run_fattree p = Experiments.Fattree.print p (Experiments.Fattree.run p)
let run_cdn_edge p = Experiments.Cdn_edge.print p (Experiments.Cdn_edge.run p)
let run_cellular p = Experiments.Cellular.print p (Experiments.Cellular.run p)

let run_feedback_faults p =
  Experiments.Feedback_faults.print p (Experiments.Feedback_faults.run p)

let experiments =
  [
    ("fig3", "Throughput vs loss: TCP/CM vs TCP/Linux", run_fig3);
    ("fig4", "100 Mbps throughput vs buffers transmitted (also prints Fig. 5)", run_fig4_5);
    ("fig5", "Sender CPU utilization vs buffers transmitted (also prints Fig. 4)", run_fig4_5);
    ("fig6", "Per-packet API overhead vs packet size", run_fig6);
    ("table1", "Boundary crossings per packet per API", run_table1);
    ("fig7", "Sequential fetches: congestion-state sharing", run_fig7);
    ("fig8", "ALF layered streaming over a varying path", run_fig8);
    ("fig9", "Rate-callback layered streaming", run_fig9);
    ("fig10", "Rate callback with delayed feedback", run_fig10);
    ("micro", "Connection-establishment microbenchmark", run_micro);
    ("ablation_sched", "Round-robin vs weighted scheduler", run_abl_sched);
    ("ablation_ctrl", "AIMD vs binomial controllers", run_abl_ctrl);
    ("ablation_share", "Independent vs shared congestion state", run_abl_share);
    ("phttp", "Sec. 6: P-HTTP multiplexing vs CM concurrent connections", run_phttp);
    ("cmproto", "Extension: CM protocol (kernel feedback) vs app feedback", run_cmproto);
    ("content", "Content adaptation: fixed vs cm_query-chosen encodings", run_content);
    ("merge", "Extension: merged macroflows behind a shared bottleneck", run_merge);
    ("ablation_fairness", "Jain fairness across flow ensembles", run_fair);
    ("scenarios", "Fault-injection scenarios: burst loss, outage, sawtooth (JSON)", run_scenarios);
    ("app_faults", "Endpoint faults: crash/silence/lie/hoard defenses & reclamation (JSON)", run_app_faults);
    ("fattree", "Fat-tree k=4 incast + cross-pod shuffle, spec-DSL authored (JSON)", run_fattree);
    ("cdn_edge", "CDN edge flash crowd: 2x1024 clients, spec-DSL authored (JSON)", run_cdn_edge);
    ("cellular", "Cellular last mile: layered app vs ramps and handoff flaps, spec-DSL authored (JSON)", run_cellular);
    ("feedback_faults", "Feedback-plane faults: blackout, degraded control plane, receiver restart (JSON)", run_feedback_faults);
  ]

let make_cmd (name, doc, runner) =
  let action seed full prof recorder = runner (params ~prof ?recorder seed full) in
  Cmd.v (Cmd.info name ~doc)
    Term.(const action $ seed_arg $ full_arg $ prof_arg $ recorder_arg)

let scale_cmd =
  let doc =
    "Many-flow scalability: a web-server-like workload at N concurrent flows across N/32 \
     macroflows, run under both schedulers.  Reports virtual-time metrics (grants, events, \
     request-to-grant latency percentiles) as deterministic JSON — byte-identical for a \
     fixed seed."
  in
  let flows_arg =
    let doc =
      "Run a single flow count instead of the standard family (64, 512, 4096, 16384)."
    in
    Arg.(value & opt (some int) None & info [ "n"; "flows" ] ~docv:"N" ~doc)
  in
  let action seed full flows =
    let p = params seed full in
    let sizes = match flows with Some n -> Some [ n ] | None -> None in
    Experiments.Scale.print p (Experiments.Scale.run ?sizes p)
  in
  Cmd.v (Cmd.info "scale" ~doc) Term.(const action $ seed_arg $ full_arg $ flows_arg)

let trace_cmd =
  let doc =
    "Run one experiment instrumented and export telemetry artifacts: a JSONL event trace, a \
     Chrome trace_event file (open in Perfetto), the CM-internals time series as CSV, and a \
     metrics snapshot.  Byte-identical for a fixed seed."
  in
  let expt_arg =
    let doc =
      "Experiment to trace: " ^ String.concat ", " Experiments.Trace_run.experiments ^ "."
    in
    Arg.(
      value
      & opt (enum (List.map (fun e -> (e, e)) Experiments.Trace_run.experiments)) "fig6"
      & info [ "e"; "expt" ] ~docv:"EXPT" ~doc)
  in
  let out_arg =
    let doc = "Directory for the artifacts (created if missing)." in
    Arg.(value & opt string "traces" & info [ "o"; "out" ] ~docv:"DIR" ~doc)
  in
  let action expt seed out_dir =
    Experiments.Trace_run.print (Experiments.Trace_run.run ~out_dir ~expt ~seed ())
  in
  Cmd.v (Cmd.info "trace" ~doc) Term.(const action $ expt_arg $ seed_arg $ out_arg)

let report_cmd =
  let doc =
    "Run one experiment family instrumented and emit a run-health report: per-flow \
     bottleneck attribution (grant/cwnd/queue/link-down), Jain fairness, stall windows, \
     drop-cause breakdown and layer-flap score, each with a pass/warn verdict.  Writes \
     <expt>.report.json and <expt>.report.md; the JSON also goes to stdout and is \
     byte-identical for a fixed seed.  With [--check-dump FILE] instead validates a flight- \
     recorder dump (every line must parse as JSON; exit 1 otherwise)."
  in
  let expt_arg =
    let doc =
      "Family to report on: " ^ String.concat ", " Experiments.Report_run.experiments ^ "."
    in
    Arg.(
      value
      & opt (enum (List.map (fun e -> (e, e)) Experiments.Report_run.experiments)) "fig6"
      & info [ "e"; "expt" ] ~docv:"EXPT" ~doc)
  in
  let out_arg =
    let doc = "Directory for the report files (created if missing)." in
    Arg.(value & opt string "reports" & info [ "o"; "out" ] ~docv:"DIR" ~doc)
  in
  let check_dump_arg =
    let doc =
      "Validate the flight-recorder dump $(docv): every line must parse as a JSON document."
    in
    Arg.(value & opt (some string) None & info [ "check-dump" ] ~docv:"FILE" ~doc)
  in
  let check_dump path =
    let ic = open_in path in
    let bad = ref 0 and lines = ref 0 in
    (try
       while true do
         let line = input_line ic in
         if String.trim line <> "" then begin
           incr lines;
           match Cm_util.Json.parse line with
           | Ok _ -> ()
           | Error msg ->
               incr bad;
               Printf.eprintf "%s:%d: %s\n" path !lines msg
         end
       done
     with End_of_file -> ());
    close_in ic;
    if !bad > 0 then begin
      Printf.eprintf "cm_expt report: %d invalid line(s) in %s\n" !bad path;
      1
    end
    else begin
      Printf.printf "%s: %d JSON line(s), all valid\n" path !lines;
      0
    end
  in
  let action expt seed out_dir dump =
    match dump with
    | Some path -> exit (check_dump path)
    | None ->
        Experiments.Report_run.print (Experiments.Report_run.run ~out_dir ~expt ~seed ())
  in
  Cmd.v (Cmd.info "report" ~doc)
    Term.(const action $ expt_arg $ seed_arg $ out_arg $ check_dump_arg)

let spec_cmd =
  let doc =
    "Inspect the spec-DSL sources behind experiment families.  [--list] shows every family \
     with its provenance (dsl vs handwritten), [--check FAMILY] runs the static checks and \
     reports diagnostics, [--dump FAMILY] prints a JSON summary of the compiled topology."
  in
  let list_arg =
    let doc = "List every experiment family with its spec provenance." in
    Arg.(value & flag & info [ "list" ] ~doc)
  in
  let check_arg =
    let doc = "Run the static checks for $(docv) and report diagnostics (exit 1 on failure)." in
    Arg.(value & opt (some string) None & info [ "check" ] ~docv:"FAMILY" ~doc)
  in
  let dump_arg =
    let doc = "Print a JSON summary of $(docv)'s compiled topology." in
    Arg.(value & opt (some string) None & info [ "dump" ] ~docv:"FAMILY" ~doc)
  in
  let module R = Experiments.Spec_registry in
  let module Check = Cm_spec.Check in
  let list_families () =
    let all = List.map (fun (n, _, _) -> n) experiments @ [ "scale" ] in
    List.iter (fun n -> Printf.printf "%-18s %s\n" n (R.provenance_of n)) all
  in
  let with_entry family k =
    match R.find family with
    | Some e -> k e
    | None ->
        let known = List.exists (fun (n, _, _) -> n = family) experiments in
        if known then (
          Printf.eprintf
            "cm_expt spec: family %s is handwritten OCaml — no spec to inspect.\n" family;
          1)
        else (
          Printf.eprintf "cm_expt spec: unknown family %s (try --list).\n" family;
          1)
  in
  let check_family family =
    with_entry family (fun e ->
        List.fold_left
          (fun rc (sub, spec) ->
            match Check.check spec with
            | [] ->
                Printf.printf "%s: ok\n" sub;
                rc
            | diags ->
                List.iter (fun d -> Printf.eprintf "%s: %s\n" sub (Check.diag_str d)) diags;
                1)
          0 e.R.specs)
  in
  let dump_family family =
    with_entry family (fun e ->
        let summaries =
          List.filter_map
            (fun (sub, spec) ->
              match Check.elaborate spec with
              | Ok ir -> Some (sub, Check.summary_json ir)
              | Error diags ->
                  List.iter (fun d -> Printf.eprintf "%s: %s\n" sub (Check.diag_str d)) diags;
                  None)
            e.R.specs
        in
        if List.length summaries <> List.length e.R.specs then 1
        else begin
          let json =
            match summaries with [ (_, j) ] -> j | l -> Experiments.Exp_common.Json.Obj l
          in
          print_endline (Experiments.Exp_common.Json.to_string json);
          0
        end)
  in
  let action list check dump =
    let rc =
      match (list, check, dump) with
      | _, None, None ->
          list_families ();
          0
      | _, Some f, None -> check_family f
      | _, None, Some f -> dump_family f
      | _, Some cf, Some df ->
          let rc = check_family cf in
          let rc' = dump_family df in
          max rc rc'
    in
    if rc <> 0 then exit rc
  in
  Cmd.v (Cmd.info "spec" ~doc) Term.(const action $ list_arg $ check_arg $ dump_arg)

let soak_cmd =
  let doc =
    "Seeded chaos soak: draw a well-formed random spec (dumbbell + bulk flows) composed with \
     random network, control-plane and application fault schedules, and run it under the \
     invariant oracles (auditor sweep incl. grant-ledger skew, flow/timer leaks, bounded \
     engine backlog, run-twice byte-determinism).  Failures are shrunk to a minimal \
     configuration and a one-line reproducer is printed.  Exit 1 on any oracle breach."
  in
  let count_arg =
    let doc = "Run $(docv) consecutive seeds starting at --seed." in
    Arg.(value & opt int 1 & info [ "n"; "count" ] ~docv:"N" ~doc)
  in
  let canary_arg =
    let doc =
      "Mutation canary: deliberately re-introduce a grant leak in the close path \
       (Macroflow.canary_grant_leak) — the soak MUST fail, proving the oracles catch a \
       real accounting bug."
    in
    Arg.(value & flag & info [ "canary" ] ~doc)
  in
  let action seed count canary =
    let failures = ref 0 in
    for s = seed to seed + count - 1 do
      match Cm_soak.Soak.run_seed ~canary s with
      | None -> Printf.printf "seed %d: ok\n%!" s
      | Some f ->
          incr failures;
          Printf.printf "seed %d: FAIL\n%!" s;
          List.iter (fun v -> Printf.printf "  %s\n" v) f.Cm_soak.Soak.f_failures;
          Printf.printf "  %s\n" (Cm_soak.Soak.repro_line ~canary f);
          Printf.printf "  %s\n%!" (Cm_util.Json.to_string (Cm_soak.Soak.failure_json ~canary f))
    done;
    if !failures > 0 then exit 1
  in
  Cmd.v (Cmd.info "soak" ~doc) Term.(const action $ seed_arg $ count_arg $ canary_arg)

let all_cmd =
  let doc = "Run every experiment in order." in
  let action seed full =
    let p = params seed full in
    List.iter (fun (_, _, runner) -> runner p)
      (List.filter (fun (n, _, _) -> n <> "fig5") experiments)
  in
  Cmd.v (Cmd.info "all" ~doc) Term.(const action $ seed_arg $ full_arg)

let () =
  let doc = "Reproduce the Congestion Manager paper's tables and figures" in
  let info = Cmd.info "cm_expt" ~version:"1.0" ~doc in
  let group =
    Cmd.group info
      (all_cmd :: trace_cmd :: report_cmd :: scale_cmd :: spec_cmd :: soak_cmd
      :: List.map make_cmd experiments)
  in
  exit (Cmd.eval group)
