open Cm_util

(* Post-run analyzer: turn one instrumented run's telemetry (sampled time
   series + metrics snapshot + trace events) into health findings — what
   limited each flow, how fair the sharing was, where goodput stalled,
   why packets died, how twitchy the adaptive app was — with pass/warn
   verdicts CI can read.  Everything here is derived from virtual-time
   data, so for a fixed seed the rendered JSON is byte-identical. *)

type input = {
  i_times : float array; (* sampler tick times, seconds *)
  i_series : (string * float array) list; (* full columns, NaN before birth *)
  i_scalars : (string * float) list; (* final counter/gauge readings *)
  i_events : Telemetry.Trace.event list;
  i_duration_s : float;
  i_period_s : float;
}

let of_telemetry tel =
  let sampler = Telemetry.sampler tel in
  let names = Telemetry.Sampler.series_names sampler in
  let series =
    List.filter_map
      (fun n ->
        match Telemetry.Sampler.series sampler n with
        | Some data -> Some (n, data)
        | None -> None)
      names
  in
  let scalars =
    List.filter_map
      (fun (name, v) ->
        match v with
        | Telemetry.Metrics.Sc n -> Some (name, float_of_int n)
        | Telemetry.Metrics.Sg x -> Some (name, x)
        | Telemetry.Metrics.Sh _ -> None)
      (Telemetry.Metrics.snapshot (Telemetry.metrics tel))
  in
  let engine = Telemetry.engine tel in
  {
    i_times = Array.map Time.to_float_s (Telemetry.Sampler.times sampler);
    i_series = series;
    i_scalars = scalars;
    i_events = Telemetry.Trace.events (Telemetry.trace tel);
    i_duration_s = Time.to_float_s (Eventsim.Engine.now engine);
    i_period_s = Time.to_float_s (Telemetry.Sampler.period sampler);
  }

(* ---- per-flow attribution ---------------------------------------------- *)

(* Why wasn't flow mf<i> going faster at tick k?  Precedence (most to
   least severe): a link was down; a queue was dropping; the congestion
   window was full (pipe ≥ 85% of cwnd); the scheduler was starving it
   (requests pending, nothing granted); otherwise unconstrained (the app
   itself was the limit).  Link conditions are per-tick deltas of the
   cumulative drop gauges — shared across flows, which is the honest
   granularity of the data we sample. *)

let causes = [| "link_down"; "queue_limited"; "cwnd_limited"; "grant_limited"; "unconstrained" |]

type flow_report = {
  f_name : string;
  f_ticks : int; (* ticks while the flow existed *)
  f_attribution : (string * float) list; (* fraction of active ticks per cause *)
  f_mean_rate_bps : float;
  f_stall_windows : (float * float) list; (* [start_s, end_s] *)
  f_stall_frac : float;
}

type status = Pass | Warn

type verdict = { v_check : string; v_status : status; v_detail : string }

type t = {
  r_flows : flow_report list;
  r_jain : float;
  r_drops : (string * int) list; (* queue / channel / down / delivered_pkts *)
  r_layer_switches : int;
  r_layer_reversals : int;
  r_flap_per_s : float;
  r_verdicts : verdict list;
  r_overall : status;
}

let find_series input name = List.assoc_opt name input.i_series

let is_sample v = not (Float.is_nan v)

(* per-tick "some link dropped for cause X during (k-1, k]" flags, from
   the deltas of every cumulative link.<name>.drops_<cause> column *)
let link_drop_flags input ~suffix =
  let n = Array.length input.i_times in
  let flags = Array.make n false in
  List.iter
    (fun (name, data) ->
      let is_drop_col =
        String.length name > 5
        && String.sub name 0 5 = "link."
        && String.length name >= String.length suffix
        && String.sub name (String.length name - String.length suffix) (String.length suffix)
           = suffix
      in
      if is_drop_col then
        for k = 0 to n - 1 do
          let prev = if k = 0 then 0. else data.(k - 1) in
          let prev = if Float.is_nan prev then 0. else prev in
          if is_sample data.(k) && data.(k) > prev then flags.(k) <- true
        done)
    input.i_series;
  flags

let mean_of a =
  let sum = ref 0. and n = ref 0 in
  Array.iter
    (fun v ->
      if is_sample v then begin
        sum := !sum +. v;
        incr n
      end)
    a;
  if !n = 0 then 0. else !sum /. float_of_int !n

(* stall windows: maximal runs of ticks with zero rate lasting at least
   max(k_rtt * srtt, 3 ticks) *)
let k_rtt = 4.

let stall_windows input ~rate ~srtt_us =
  let n = Array.length input.i_times in
  let windows = ref [] in
  let run_start = ref (-1) in
  let flush last =
    if !run_start >= 0 then begin
      let s = !run_start in
      let start_t = input.i_times.(s) and end_t = input.i_times.(last) in
      let srtt_s =
        match srtt_us with
        | Some a when is_sample a.(s) -> a.(s) /. 1e6
        | _ -> 0.
      in
      let min_len = Float.max (k_rtt *. srtt_s) (3. *. input.i_period_s) in
      if end_t -. start_t +. input.i_period_s >= min_len then
        windows := (start_t, end_t) :: !windows;
      run_start := -1
    end
  in
  for k = 0 to n - 1 do
    if is_sample rate.(k) && rate.(k) <= 0. then begin
      if !run_start < 0 then run_start := k
    end
    else flush (k - 1)
  done;
  flush (n - 1);
  List.rev !windows

let analyze_flow input ~down_flags ~queue_flags name =
  let s suffix = find_series input (name ^ "." ^ suffix) in
  match (s "cwnd", s "rate_bps") with
  | None, _ | _, None -> None
  | Some cwnd, Some rate ->
      let pipe = s "pipe" and granted = s "granted" and pending = s "pending" in
      let srtt_us = s "srtt_us" in
      let n = Array.length input.i_times in
      let counts = Array.make (Array.length causes) 0 in
      let active = ref 0 in
      for k = 0 to n - 1 do
        if is_sample cwnd.(k) then begin
          incr active;
          let get o = match o with Some a when is_sample a.(k) -> a.(k) | _ -> 0. in
          let cause =
            if down_flags.(k) then 0
            else if queue_flags.(k) then 1
            else if cwnd.(k) > 0. && get pipe >= 0.85 *. cwnd.(k) then 2
            else if get pending > 0. && get granted <= 0. then 3
            else 4
          in
          counts.(cause) <- counts.(cause) + 1
        end
      done;
      let frac c = if !active = 0 then 0. else float_of_int c /. float_of_int !active in
      let windows = stall_windows input ~rate ~srtt_us in
      let stalled_ticks =
        let in_window t = List.exists (fun (a, b) -> t >= a && t <= b) windows in
        Array.fold_left
          (fun acc t -> if in_window t then acc + 1 else acc)
          0 input.i_times
      in
      Some
        {
          f_name = name;
          f_ticks = !active;
          f_attribution = Array.to_list (Array.mapi (fun i c -> (causes.(i), frac c)) counts);
          f_mean_rate_bps = mean_of rate;
          f_stall_windows = windows;
          f_stall_frac =
            (if !active = 0 then 0. else float_of_int stalled_ticks /. float_of_int !active);
        }

(* ---- aggregates -------------------------------------------------------- *)

let jain rates =
  match rates with
  | [] | [ _ ] -> 1.
  | _ ->
      let s = List.fold_left ( +. ) 0. rates in
      let s2 = List.fold_left (fun acc x -> acc +. (x *. x)) 0. rates in
      if s2 <= 0. then 1. else s *. s /. (float_of_int (List.length rates) *. s2)

let drop_totals input =
  let total suffix =
    List.fold_left
      (fun acc (name, v) ->
        if
          String.length name > 5
          && String.sub name 0 5 = "link."
          && String.length name >= String.length suffix
          && String.sub name (String.length name - String.length suffix) (String.length suffix)
             = suffix
        then acc + int_of_float v
        else acc)
      0 input.i_scalars
  in
  [
    ("queue", total ".drops_queue");
    ("channel", total ".drops_channel");
    ("down", total ".drops_down");
    ("delivered_pkts", total ".delivered_pkts");
  ]

let layer_flaps input =
  let switches =
    List.filter (fun (e : Telemetry.Trace.event) -> e.Telemetry.Trace.name = "app.layer")
      input.i_events
  in
  let dir (e : Telemetry.Trace.event) =
    let arg k =
      match List.assoc_opt k e.Telemetry.Trace.args with
      | Some (Telemetry.Trace.Int i) -> Some i
      | _ -> None
    in
    match (arg "from", arg "to") with
    | Some f, Some t -> compare t f
    | _ -> 0
  in
  let _, reversals =
    List.fold_left
      (fun (prev, acc) e ->
        let d = dir e in
        if d = 0 then (prev, acc)
        else
          match prev with
          | Some p when p <> 0 && p <> d -> (Some d, acc + 1)
          | _ -> (Some d, acc))
      (None, 0) switches
  in
  (List.length switches, reversals)

(* ---- verdict thresholds ------------------------------------------------ *)

let verdicts ~flows ~jain_idx ~drops ~flap_per_s =
  let v check ok detail = { v_check = check; v_status = (if ok then Pass else Warn); v_detail = detail } in
  let worst_stall =
    List.fold_left (fun acc f -> Float.max acc f.f_stall_frac) 0. flows
  in
  let worst_grant =
    List.fold_left
      (fun acc f ->
        match List.assoc_opt "grant_limited" f.f_attribution with
        | Some x -> Float.max acc x
        | None -> acc)
      0. flows
  in
  let get k = match List.assoc_opt k drops with Some n -> n | None -> 0 in
  let delivered = get "delivered_pkts" in
  let queue_rate =
    if delivered = 0 then if get "queue" > 0 then 1. else 0.
    else float_of_int (get "queue") /. float_of_int delivered
  in
  [
    v "stalls" (worst_stall <= 0.10)
      (Printf.sprintf "worst stall fraction %s (warn > 0.1)" (Json.float_str worst_stall));
    v "fairness"
      (List.length flows < 2 || jain_idx >= 0.85)
      (Printf.sprintf "Jain index %s (warn < 0.85)" (Json.float_str jain_idx));
    v "down_drops" (get "down" = 0)
      (Printf.sprintf "%d packets died on downed links" (get "down"));
    v "queue_drops" (queue_rate <= 0.05)
      (Printf.sprintf "queue-drop rate %s of delivered (warn > 0.05)" (Json.float_str queue_rate));
    v "flaps" (flap_per_s <= 1.0)
      (Printf.sprintf "%s layer reversals per second (warn > 1)" (Json.float_str flap_per_s));
    v "grant_starvation" (worst_grant <= 0.5)
      (Printf.sprintf "worst grant-limited fraction %s (warn > 0.5)" (Json.float_str worst_grant));
  ]

(* ---- entry point ------------------------------------------------------- *)

(* macroflow series prefixes, in mf-id order: "mf0", "mf3", ... *)
let flow_names input =
  List.filter_map
    (fun (name, _) ->
      let n = String.length name in
      if n > 7 && String.sub name 0 2 = "mf" && String.sub name (n - 5) 5 = ".cwnd" then
        Some (String.sub name 0 (n - 5))
      else None)
    input.i_series

let analyze input =
  let down_flags = link_drop_flags input ~suffix:".drops_down" in
  let queue_flags = link_drop_flags input ~suffix:".drops_queue" in
  let flows =
    List.filter_map (analyze_flow input ~down_flags ~queue_flags) (flow_names input)
  in
  let jain_idx = jain (List.map (fun f -> f.f_mean_rate_bps) flows) in
  let drops = drop_totals input in
  let switches, reversals = layer_flaps input in
  let flap_per_s =
    if input.i_duration_s <= 0. then 0. else float_of_int reversals /. input.i_duration_s
  in
  let vs = verdicts ~flows ~jain_idx ~drops ~flap_per_s in
  {
    r_flows = flows;
    r_jain = jain_idx;
    r_drops = drops;
    r_layer_switches = switches;
    r_layer_reversals = reversals;
    r_flap_per_s = flap_per_s;
    r_verdicts = vs;
    r_overall = (if List.exists (fun v -> v.v_status = Warn) vs then Warn else Pass);
  }

(* ---- rendering --------------------------------------------------------- *)

let status_str = function Pass -> "pass" | Warn -> "warn"

let flow_json f =
  let open Json in
  Obj
    [
      ("mf", Str f.f_name);
      ("ticks", Int f.f_ticks);
      ("mean_rate_bps", Float f.f_mean_rate_bps);
      ("attribution", Obj (List.map (fun (c, x) -> (c, Float x)) f.f_attribution));
      ("stall_frac", Float f.f_stall_frac);
      ( "stall_windows_s",
        List (List.map (fun (a, b) -> List [ Float a; Float b ]) f.f_stall_windows) );
    ]

let to_json r =
  let open Json in
  Obj
    [
      ("flows", List (List.map flow_json r.r_flows));
      ("jain_fairness", Float r.r_jain);
      ("drops", Obj (List.map (fun (c, n) -> (c, Int n)) r.r_drops));
      ("layer_switches", Int r.r_layer_switches);
      ("layer_reversals", Int r.r_layer_reversals);
      ("flap_per_s", Float r.r_flap_per_s);
      ( "verdicts",
        List
          (List.map
             (fun v ->
               Obj
                 [
                   ("check", Str v.v_check);
                   ("status", Str (status_str v.v_status));
                   ("detail", Str v.v_detail);
                 ])
             r.r_verdicts) );
      ("overall", Str (status_str r.r_overall));
    ]

let to_markdown r =
  let b = Buffer.create 1024 in
  Buffer.add_string b "# Run health report\n\n";
  Buffer.add_string b (Printf.sprintf "**Overall: %s**\n\n" (status_str r.r_overall));
  Buffer.add_string b "## Verdicts\n\n| check | status | detail |\n|---|---|---|\n";
  List.iter
    (fun v ->
      Buffer.add_string b
        (Printf.sprintf "| %s | %s | %s |\n" v.v_check (status_str v.v_status) v.v_detail))
    r.r_verdicts;
  Buffer.add_string b "\n## Per-flow completion-latency attribution\n\n";
  Buffer.add_string b
    "| flow | ticks | mean rate (bps) | link down | queue | cwnd | grant | unconstrained | stall frac |\n";
  Buffer.add_string b "|---|---|---|---|---|---|---|---|---|\n";
  List.iter
    (fun f ->
      let a c = match List.assoc_opt c f.f_attribution with Some x -> Json.float_str x | None -> "0" in
      Buffer.add_string b
        (Printf.sprintf "| %s | %d | %s | %s | %s | %s | %s | %s | %s |\n" f.f_name f.f_ticks
           (Json.float_str f.f_mean_rate_bps)
           (a "link_down") (a "queue_limited") (a "cwnd_limited") (a "grant_limited")
           (a "unconstrained") (Json.float_str f.f_stall_frac)))
    r.r_flows;
  Buffer.add_string b
    (Printf.sprintf "\nJain fairness index: %s across %d flows.\n" (Json.float_str r.r_jain)
       (List.length r.r_flows));
  Buffer.add_string b "\n## Drop causes\n\n";
  List.iter (fun (c, n) -> Buffer.add_string b (Printf.sprintf "- %s: %d\n" c n)) r.r_drops;
  Buffer.add_string b
    (Printf.sprintf "\n%d layer switches, %d reversals (%s flaps/s).\n" r.r_layer_switches
       r.r_layer_reversals (Json.float_str r.r_flap_per_s));
  Buffer.contents b
