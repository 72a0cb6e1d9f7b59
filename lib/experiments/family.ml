type t = {
  name : string;
  doc : string;
  run : Exp_common.params -> unit;
  subruns : (string * (Exp_common.params -> unit)) list;
  specs : (string * Cm_spec.Spec.t) list;
}

(* [compute] runs the family and [print] renders its result; unless a
   smaller probe workload is named, trace and report capture [compute]. *)
let make ?subruns ?(specs = []) name doc compute print =
  let subruns = Option.value subruns ~default:[ (name, fun p -> ignore (compute p)) ] in
  { name; doc; run = (fun p -> print p (compute p)); subruns; specs }

let all =
  [
    make "fig3" "Throughput vs loss: TCP/CM vs TCP/Linux" Fig3.run (fun _ -> Fig3.print)
      ~specs:
        (List.map (fun l -> (Printf.sprintf "fig3_loss_%g" l, Fig3.spec_of l)) Fig3.loss_points);
    make "fig4" "100 Mbps throughput vs buffers transmitted (also prints Fig. 5)" Fig4_5.run
      (fun _ -> Fig4_5.print)
      ~specs:[ ("fig4_5", Fig4_5.spec) ];
    make "fig5" "Sender CPU utilization vs buffers transmitted (also prints Fig. 4)" Fig4_5.run
      (fun _ -> Fig4_5.print)
      ~specs:[ ("fig4_5", Fig4_5.spec) ];
    make "fig6" "Per-packet API overhead vs packet size" Fig6.run (fun _ -> Fig6.print)
      ~subruns:[ ("fig6", fun p -> ignore (Fig6.measure_macro p Fig6.Tcp_cm ~size:1448 ~n:2_000)) ]
      ~specs:[ ("fig6", Fig6.spec) ];
    make "table1" "Boundary crossings per packet per API" Fig6.run_table1
      (fun _ -> Fig6.print_table1)
      ~specs:[ ("fig6", Fig6.spec) ];
    make "fig7" "Sequential fetches: congestion-state sharing" Fig7.run (fun _ -> Fig7.print)
      ~subruns:
        [
          ("fig7", fun p -> ignore (Fig7.run_side p ~use_cm:true ~count:3 ~file_bytes:(64 * 1024)));
        ]
      ~specs:[ ("fig7", Fig7.spec) ];
    make "fig8" "ALF layered streaming over a varying path" (fun p -> Fig8_10.run p Fig8_10.Fig8)
      (fun _ -> Fig8_10.print)
      ~specs:[ ("fig8_10", Fig8_10.spec Fig8_10.Fig8) ];
    make "fig9" "Rate-callback layered streaming" (fun p -> Fig8_10.run p Fig8_10.Fig9)
      (fun _ -> Fig8_10.print)
      ~specs:[ ("fig8_10", Fig8_10.spec Fig8_10.Fig9) ];
    make "fig10" "Rate callback with delayed feedback" (fun p -> Fig8_10.run p Fig8_10.Fig10)
      (fun _ -> Fig8_10.print)
      ~specs:[ ("fig8_10", Fig8_10.spec Fig8_10.Fig10) ];
    make "micro" "Connection-establishment microbenchmark" Micro.run (fun _ -> Micro.print)
      ~specs:[ ("micro", Micro.spec) ];
    make "ablation_sched" "Round-robin vs weighted scheduler" Ablations.run_scheduler
      (fun _ -> Ablations.print_scheduler)
      ~specs:[ ("ablation_sched", Ablations.sched_spec Cm.Scheduler.round_robin) ];
    make "ablation_ctrl" "AIMD vs binomial controllers" Ablations.run_controller
      (fun _ -> Ablations.print_controller)
      ~specs:[ ("ablation_ctrl", Ablations.ctrl_spec (Cm.Controller.aimd ())) ];
    make "ablation_share" "Independent vs shared congestion state" Ablations.run_sharing
      (fun _ -> Ablations.print_sharing)
      ~specs:[ ("ablation_share", Ablations.share_spec) ];
    (* its drop_listed queue discipline drops data packets by index; the
       DSL has no custom disciplines *)
    make "phttp" "Sec. 6: P-HTTP multiplexing vs CM concurrent connections" Sec6_phttp.run
      (fun _ -> Sec6_phttp.print);
    make "cmproto" "Extension: CM protocol (kernel feedback) vs app feedback" Ext_cmproto.run
      (fun _ -> Ext_cmproto.print)
      ~specs:[ ("cmproto", Ext_cmproto.spec) ];
    make "content" "Content adaptation: fixed vs cm_query-chosen encodings" Content_adapt.run
      (fun _ -> Content_adapt.print)
      ~specs:
        (List.map
           (fun bw -> (Printf.sprintf "content_%gMbps" (bw /. 1e6), Content_adapt.spec_of bw))
           Content_adapt.bandwidths);
    make "merge" "Extension: merged macroflows behind a shared bottleneck" Ext_merge.run
      (fun _ -> Ext_merge.print)
      ~specs:[ ("merge", Ext_merge.spec) ];
    make "ablation_fairness" "Jain fairness across flow ensembles" Ablations.run_fairness
      (fun _ -> Ablations.print_fairness)
      ~specs:[ ("ablation_fairness", Ablations.fairness_spec) ];
    make "scenarios" "Fault-injection scenarios: burst loss, outage, sawtooth (JSON)" Scenarios.run
      Scenarios.print
      ~subruns:
        (List.map
           (fun (sub, scenario, app) -> (sub, fun p -> ignore (Scenarios.run_one p ~scenario ~app)))
           Scenarios.
             [
               ("scenario_burst", Burst_loss, Tcp_cm_bulk);
               ("scenario_outage", Outage, Tcp_cm_bulk);
               ("scenario_sawtooth", Sawtooth, Layered_stream);
             ])
      ~specs:
        (List.map
           (fun id -> (Scenarios.scenario_name id, Scenarios.spec_of id))
           Scenarios.[ Burst_loss; Outage; Sawtooth ]);
    (* the storm case exercises every defense; the baseline would report all-pass *)
    make "app_faults"
      "Endpoint faults: crash/silence/lie/hoard defenses & reclamation (JSON)" App_faults.run
      App_faults.print
      ~subruns:[ ("app_faults_storm", fun p -> ignore (App_faults.run_case p App_faults.Storm)) ]
      ~specs:[ ("app_faults", App_faults.spec) ];
    make "fattree" "Fat-tree k=4 incast + cross-pod shuffle, spec-DSL authored (JSON)" Fattree.run
      Fattree.print
      ~specs:[ ("fattree", Fattree.spec) ];
    make "cdn_edge" "CDN edge flash crowd: 2x1024 clients, spec-DSL authored (JSON)" Cdn_edge.run
      Cdn_edge.print
      ~specs:[ ("cdn_edge", Cdn_edge.spec) ];
    make "cellular"
      "Cellular last mile: layered app vs ramps and handoff flaps, spec-DSL authored (JSON)"
      Cellular.run Cellular.print
      ~specs:[ ("cellular", Cellular.spec) ];
    (* the blackout case drives every defense counter *)
    make "feedback_faults"
      "Feedback-plane faults: blackout, degraded control plane, receiver restart (JSON)"
      Feedback_faults.run Feedback_faults.print
      ~subruns:
        [
          ( "feedback_faults_blackout",
            fun p -> ignore (Feedback_faults.run_case p Feedback_faults.Blackout) );
        ]
      ~specs:[ ("feedback_faults", Feedback_faults.spec Feedback_faults.Baseline) ];
  ]

let find name = List.find_opt (fun f -> f.name = name) all
