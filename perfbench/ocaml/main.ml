(* The benchmark's measuring program: runs one workload for a wall-clock
   budget and prints one JSON document (through Cm_util.Json) on its last
   line.

     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
              [--digests FILE] [--trace-out FILE]
     main.exe --canary [--digests FILE]

   A run repeats the workload — set-up, simulation phase, output check —
   until the budget is spent (at least four times), bracketing each
   repetition with a pass of the reference kernel ({!Calib}) before and
   after.  The first repetition is a warm-up: it is checked but kept out
   of the wall figures.  Every quantity is reported raw (integer
   nanoseconds, words, counts) so the caller derives rates and medians
   without losing digits.  With --trace 1 plain and traced repetitions
   alternate: the plain ones give the tracing overhead, the traced ones
   the per-layer ledger. *)

module Json = Cm_util.Json

let workloads =
  [ Bulk_tcpcm.workload; Dgram_168.workload; Manyflow_cm.workload; Flash_crowd.workload ]

(* ---- one repetition --------------------------------------------------- *)

type rep = {
  warmup : bool;
  traced : bool;
  cal_setup : Calib.sample;  (** kernel passes just before and just after set-up *)
  cal_sim : Calib.sample;  (** passes just before, during and just after the simulation phase *)
  top_heap_words : int;  (** the process's major-heap high-water after this simulation phase *)
  setup_ns : int;
  sim_ns : int;
  minor_words : int;
  major_words : int;
  promoted_words : int;
  minor_gcs : int;
  major_gcs : int;
  units : int;
  outcome : Wl.outcome;
  doc : string;  (** the virtual-time results, as hashed *)
  sim_layer_self : (string * int) list;  (** traced: self ns per layer in the simulation phase *)
}

let layer_selves tr = List.map (fun l -> (l, Probe.layer_self_ns tr l)) Probe.layers

(* Each repetition starts from a collected heap, so the previous one's
   garbage is not paid for inside this one's set-up.  [peak_heap_mb] is
   read after the first repetition, which starts from a fresh heap: later
   forced collections let OCaml 5 grow the heap well past the workload's
   own high-water. *)
let repeat (w : Wl.t) tr ~seed ~warmup =
  Netsim.Packet.reset_ids ();
  Gc.full_major ();
  let cal_pre = Calib.pass Calib.full_pass in
  let t0 = Probe.now () in
  let sys = w.Wl.setup tr ~seed in
  let t1 = Probe.now () in
  let cal_mid = Calib.pass Calib.full_pass in
  let self0 = layer_selves tr in
  let g0 = Gc.quick_stat () in
  let m0 = Gc.minor_words () in
  Calib.start_ticks ();
  let t2 = Probe.now () in
  sys.Wl.run ();
  let t3 = Probe.now () in
  let ticks = Calib.stop_ticks () in
  let m1 = Gc.minor_words () in
  let g1 = Gc.quick_stat () in
  let cal_post = Calib.pass Calib.full_pass in
  let self1 = layer_selves tr in
  let o = sys.Wl.finish () in
  let doc =
    Json.to_string
      (Json.Obj
         [
           ("delivered", Json.Int o.Wl.delivered);
           ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) o.Wl.counters));
           ("results", Json.Obj o.Wl.results);
         ])
  in
  let words f = int_of_float (f g1 -. f g0) in
  {
    warmup;
    traced = tr.Probe.on;
    cal_setup = Calib.add cal_pre cal_mid;
    cal_sim = Calib.add cal_mid (Calib.add ticks cal_post);
    top_heap_words = g1.Gc.top_heap_words;
    setup_ns = t1 - t0;
    sim_ns = t3 - t2 - ticks.Calib.ns;
    (* [Gc.minor_words] is exact; the quick_stat field lags by up to a
       minor heap *)
    minor_words = int_of_float (m1 -. m0);
    major_words = words (fun g -> g.Gc.major_words);
    promoted_words = words (fun g -> g.Gc.promoted_words);
    minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
    units = Option.value sys.Wl.units ~default:o.Wl.delivered;
    outcome = o;
    doc;
    sim_layer_self = List.map2 (fun (l, a) (_, b) -> (l, b - a)) self0 self1;
  }

let digest doc = Digest.to_hex (Digest.string doc)

(* ---- recorded digests ------------------------------------------------- *)

let recorded_digest ~file ~workload ~seed =
  if not (Sys.file_exists file) then None
  else
    let text = In_channel.with_open_bin file In_channel.input_all in
    match Json.parse text with
    | Ok (Json.Obj ws) -> (
        match List.assoc_opt workload ws with
        | Some (Json.Obj seeds) -> (
            match List.assoc_opt (string_of_int seed) seeds with
            | Some (Json.Str d) -> Some d
            | _ -> None)
        | _ -> None)
    | Ok _ -> failwith (file ^ ": expected an object of workloads")
    | Error e -> failwith (file ^ ": " ^ e)

(* A repetition passes when it finished all its work, every CM audit is
   clean, and its results hash to the reference: the digest recorded for
   this seed, or — for a seed with none recorded — the first repetition's
   results, byte for byte. *)
let failed_reps ~reference reps =
  let reference = match reference with Some d -> d | None -> digest (List.hd reps).doc in
  List.filter (fun r -> r.outcome.Wl.problems <> [] || digest r.doc <> reference) reps

(* ---- the run loop ----------------------------------------------------- *)

let median l =
  match List.sort compare l with
  | [] -> 0
  | s -> List.nth s ((List.length s - 1) / 2)

let scaled_sim r = Calib.scale r.cal_sim r.sim_ns

let run_workload (w : Wl.t) ~seed ~seconds ~trace ~min_reps =
  let start = Probe.now () in
  let elapsed () = float_of_int (Probe.now () - start) /. 1e9 in
  let tr = if trace then Probe.create ~on:true () else Probe.off in
  (* a traced run alternates plain and traced repetitions, so drift on the
     machine hits both sides alike *)
  let rec loop acc n last =
    if n >= min_reps && elapsed () +. last > seconds then List.rev acc
    else begin
      let t = Probe.now () in
      let r = repeat w (if trace && n mod 2 = 1 then tr else Probe.off) ~seed ~warmup:(n = 0) in
      loop (r :: acc) (n + 1) (float_of_int (Probe.now () - t) /. 1e9)
    end
  in
  (loop [] 0 0., tr)

(* ---- the per-layer ledger (traced runs) -------------------------------- *)

let ratio a b = Json.List [ Json.Int a; Json.Int b ]

(* An empty span's cost: the instrument's own resolution. *)
let span_cost () =
  let tr = Probe.create ~keep:0 ~on:true () in
  let n = 200_000 in
  let t0 = Probe.now () in
  for _ = 1 to n do
    Probe.enter tr Probe.Empty;
    Probe.leave tr
  done;
  ratio (Probe.now () - t0) n

let ledger tr reps =
  let plain = List.filter (fun r -> not (r.traced || r.warmup)) reps
  and traced = List.filter (fun r -> r.traced) reps in
  let k = List.length traced in
  let last = List.nth traced (k - 1) in
  let units = last.units in
  let c name =
    let o = last.outcome in
    Option.value (List.assoc_opt name (o.Wl.counters @ o.Wl.internals)) ~default:0
  in
  let per_rep_s ns = ratio ns (k * 1_000_000_000) in
  let stat = Probe.stat tr in
  let calls kind = ratio (stat kind).Probe.s_calls k in
  let pct ~self kind q =
    if self then Probe.self_percentile tr kind q else Probe.incl_percentile tr kind q
  in
  let timing ?(self = false) prefix kind =
    let n = (stat kind).Probe.s_calls in
    [
      (prefix ^ "_p50", Json.Int (pct ~self kind 0.5));
      (prefix ^ "_tail", Json.Int (pct ~self kind (Probe.tail_quantile n)));
    ]
  in
  let words ?(self = false) kind =
    let s = stat kind in
    ratio (int_of_float (if self then s.Probe.s_self_words else s.Probe.s_incl_words)) s.Probe.s_calls
  in
  let sim_self l = Wl.sum (fun r -> List.assoc l r.sim_layer_self) traced in
  let counter names = List.map (fun n -> (n, Json.Int (c n))) names in
  let med f l = median (List.map f l) in
  let plain_sim = med scaled_sim plain and traced_sim = med scaled_sim traced in
  let events = c "eventsim.events" in
  let sim_total = Wl.sum (fun r -> r.sim_ns) traced in
  let self_total = Wl.sum (fun l -> sim_self l) Probe.layers in
  List.concat
    [
      [
        ("eventsim.events", Json.Int events);
        ("eventsim.events_per_unit", ratio events units);
        ("eventsim.events_per_s", ratio (events * 1_000_000_000) plain_sim);
        ("eventsim.run_self_s", per_rep_s (sim_self "eventsim"));
        ( "eventsim.run_self_words_per_unit",
          ratio (int_of_float (stat Probe.Run_for).Probe.s_self_words) (k * units) );
        ("eventsim.pool_hw", Json.Int (c "eventsim.pool_hw"));
      ];
      counter (List.map (( ^ ) "eventsim.dispatch.") [ "timer"; "net"; "cm"; "other" ]);
      counter [ "wheel.overflow_inserts"; "wheel.overflow_migrations"; "wheel.hw_size"; "wheel.hw_cur" ];
      [ ("link.send_calls", calls Probe.Link_send) ];
      timing ~self:true "link.send_self_ns" Probe.Link_send;
      [ ("link.send_self_words", words ~self:true Probe.Link_send); ("link.self_s", per_rep_s (sim_self "link")) ];
      counter [ "link.delivered_pkts"; "link.queue_drops"; "link.channel_drops" ];
      [
        ( "link.delivered_ratio",
          ratio (c "link.delivered_pkts")
            (c "link.delivered_pkts" + c "link.queue_drops" + c "link.channel_drops" + c "link.down_drops") );
        ("host.deliver_calls", calls Probe.Host_deliver);
      ];
      timing ~self:true "host.deliver_self_ns" Probe.Host_deliver;
      [
        ("host.deliver_self_words", words ~self:true Probe.Host_deliver);
        ("host.self_s", per_rep_s (sim_self "host"));
      ];
      counter [ "host.tx_packets"; "host.unmatched"; "tcp.segments_out"; "tcp.acks_out"; "tcp.retransmits" ];
      [ ("tcp.retransmit_ratio", ratio (c "tcp.retransmits") (c "tcp.segments_out")) ];
      counter
        [
          "tcp.timeouts"; "tcp.rtt_samples"; "cm.requests"; "cm.grants"; "cm.notifies"; "cm.updates";
          "cm.opens"; "cm.closes";
        ];
      [ ("cm.declined_ratio", ratio (c "cm.declined_grants") (c "cm.grants")) ];
      counter [ "cm.teardown_probes"; "cm.flow_slot_capacity" ];
      List.concat_map
        (fun (name, kind) ->
          timing ("cm." ^ name ^ "_ns") kind @ [ ("cm." ^ name ^ "_calls", calls kind) ])
        Probe.
          [
            ("request", Cm_request); ("notify", Cm_notify); ("update", Cm_update); ("open", Cm_open);
            ("close", Cm_close);
          ];
      [
        ("cm.request_words", words Probe.Cm_request);
        ("cm.notify_words", words Probe.Cm_notify);
        ("cm.update_words", words Probe.Cm_update);
        ("cm.grant_cb_calls", calls Probe.Cm_grant_cb);
        ("cm.grant_lat_virtual_us_tail", ratio (c "cm.grant_lat_virtual_ns_tail") 1000);
        ("cm.self_s", per_rep_s (sim_self "cm"));
      ];
      timing "libcm.request_ns" Probe.Libcm_request;
      [ ("libcm.request_calls", calls Probe.Libcm_request) ];
      timing "libcm.update_ns" Probe.Libcm_update;
      [
        ("libcm.update_calls", calls Probe.Libcm_update);
        ("libcm.dispatches", Json.Int (c "libcm.dispatches"));
        ( "libcm.grants_per_dispatch",
          ratio (stat Probe.Libcm_grant_cb).Probe.s_calls (k * c "libcm.dispatches") );
        ("libcm.self_s", per_rep_s (sim_self "libcm"));
      ];
      List.map
        (fun op -> ("libcm.ops_per_unit." ^ op, ratio (c ("libcm.ops." ^ op)) units))
        [ "send"; "recv"; "select"; "ioctl_request"; "ioctl_update"; "ioctl_query"; "gettimeofday" ];
      timing "udp.send_ns" Probe.Udp_send;
      [ ("udp.send_calls", calls Probe.Udp_send); ("udp.rx_cb_calls", calls Probe.Udp_rx_cb) ];
      timing ~self:true "udp.rx_cb_self_ns" Probe.Udp_rx_cb;
      [ ("udp.self_s", per_rep_s (sim_self "udp")) ];
      timing "cmproto.session_send_ns" Probe.Cmproto_send;
      [ ("cmproto.session_send_calls", calls Probe.Cmproto_send) ];
      counter [ "cmproto.feedback_sent"; "cmproto.feedback_received" ];
      [ ("cmproto.feedback_per_unit", ratio (c "cmproto.feedback_received") units) ];
      counter [ "cmproto.dup_feedback"; "cmproto.stale_feedback"; "cmproto.solicits" ];
      [
        ("cmproto.self_s", per_rep_s (sim_self "cmproto"));
        ("spec.elaborate_s", per_rep_s (stat Probe.Spec_elaborate).Probe.s_incl_ns);
        ("spec.build_s", per_rep_s (stat Probe.Spec_build).Probe.s_incl_ns);
        ("spec.launch_s", per_rep_s (stat Probe.Spec_launch).Probe.s_incl_ns);
        ("spec.build_words", ratio (int_of_float (stat Probe.Spec_build).Probe.s_incl_words) k);
      ];
      counter [ "spec.nodes"; "spec.links" ];
      [
        ("app.self_s", per_rep_s (sim_self "app"));
        ("gc.minor_collections", Json.Int (med (fun r -> r.minor_gcs) plain));
        ("gc.major_collections", Json.Int (med (fun r -> r.major_gcs) plain));
        ("gc.promoted_words", Json.Int (med (fun r -> r.promoted_words) plain));
        ("bench.trace_overhead_pct", ratio (100 * (traced_sim - plain_sim)) plain_sim);
        ("bench.span_cost_ns", span_cost ());
        ("bench.traced_sim_s", per_rep_s sim_total);
        ("bench.residual_s", per_rep_s (sim_total - self_total));
      ];
    ]

(* ---- output ----------------------------------------------------------- *)

let rep_json ~failed r =
  Json.Obj
    [
      ("warmup", Json.Bool r.warmup);
      ("traced", Json.Bool r.traced);
      ("setup_ns", Json.Int r.setup_ns);
      ("sim_ns", Json.Int r.sim_ns);
      ("scaled_setup_ns", Json.Int (Calib.scale r.cal_setup r.setup_ns));
      ("scaled_sim_ns", Json.Int (scaled_sim r));
      ("minor_words", Json.Int r.minor_words);
      ("major_words", Json.Int r.major_words);
      ("units", Json.Int r.units);
      ("failed", Json.Bool (List.memq r failed));
    ]

let report (w : Wl.t) ~seed ~trace ~reference ~trace_out (reps, tr) =
  let failed = failed_reps ~reference reps in
  let first = List.hd reps in
  let ledger = if trace then ledger tr reps else [] in
  (match trace_out with
  | Some file when trace ->
      Out_channel.with_open_bin file (fun oc ->
          Out_channel.output_string oc
            (Json.to_string
               (Json.Obj
                  [
                    ("workload", Json.Str w.Wl.name);
                    ("seed", Json.Int seed);
                    ("ledger", Json.Obj ledger);
                    ("spans", Probe.kept_json tr);
                  ])))
  | _ -> ());
  Json.Obj
    [
      ("workload", Json.Str w.Wl.name);
      ("seed", Json.Int seed);
      ("digest", Json.Str (digest first.doc));
      ("digest_source", Json.Str (if reference = None then "repeat" else "recorded"));
      ("problems", Json.List (List.map (fun p -> Json.Str p) (List.concat_map (fun r -> r.outcome.Wl.problems) failed)));
      ("reps", Json.List (List.map (rep_json ~failed) reps));
      (* the warm-up repetition ran first in a fresh process, so its
         high-water is the workload's own, not the luck of GC pacing over
         a whole run *)
      ("peak_heap_words", Json.Int first.top_heap_words);
      ("ledger", Json.Obj ledger);
    ]

(* The output check must be able to fail: run the smallest workload once
   against a perturbed copy of its recorded digest (every unit must count
   as failed) and once against the true one (none may). *)
let canary ~digests =
  let w = Dgram_168.workload and seed = 42 in
  let reference = recorded_digest ~file:digests ~workload:w.Wl.name ~seed in
  match reference with
  | None ->
      prerr_endline "canary: no digest recorded for dgram_168 seed 42";
      exit 1
  | Some d ->
      let flip = String.mapi (fun i ch -> if i = 0 then if ch = '0' then '1' else '0' else ch) d in
      let share reference =
        let reps, _ = run_workload w ~seed ~seconds:0. ~trace:false ~min_reps:1 in
        let failed = failed_reps ~reference:(Some reference) reps in
        float_of_int (Wl.sum (fun r -> r.units) failed) /. float_of_int (Wl.sum (fun r -> r.units) reps)
      in
      let perturbed = share flip and honest = share d in
      Printf.printf "canary: failed_share %g with a perturbed digest, %g with the recorded one\n" perturbed
        honest;
      if not (perturbed > 0. && honest = 0.) then exit 1

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 10. and trace = ref 0 in
  let digests = ref "perfbench/digests.json" and trace_out = ref None and canary_mode = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S wall-clock budget (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 plain run, or traced run with the per-layer ledger");
      ("--digests", Arg.Set_string digests, "FILE recorded output digests");
      ("--trace-out", Arg.String (fun f -> trace_out := Some f), "FILE write the ledger and kept spans");
      ("--canary", Arg.Set canary_mode, " check that a perturbed digest fails the run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  if !canary_mode then canary ~digests:!digests
  else
    match List.find_opt (fun w -> w.Wl.name = !workload) workloads with
    | None ->
        prerr_endline
          ("unknown workload " ^ !workload ^ "; one of: "
          ^ String.concat ", " (List.map (fun w -> w.Wl.name) workloads));
        exit 2
    | Some w ->
        let trace = !trace = 1 in
        let reference = recorded_digest ~file:!digests ~workload:w.Wl.name ~seed:!seed in
        let result =
          run_workload w ~seed:!seed ~seconds:!seconds ~trace ~min_reps:(if trace then 5 else 4)
        in
        print_endline
          (Json.to_string (report w ~seed:!seed ~trace ~reference ~trace_out:!trace_out result))
