(** Post-run health analyzer.

    Consumes one instrumented run's telemetry — the sampled time series
    (cwnd / pipe / granted / pending / rate per macroflow, per-cause drop
    counters per link), the metrics snapshot, and the trace events — and
    answers the questions the raw artifacts don't: what limited each
    flow tick by tick, how fair the macroflows were to each other, where
    goodput stalled, why packets died, and how twitchy the layered app
    was.  Each finding carries a pass/warn verdict with its threshold
    spelled out, rolled into one overall verdict.

    Attribution heuristic, per tick, most severe cause wins:
    link down (a [drops_down] gauge advanced) > queue-limited (a
    [drops_queue] gauge advanced) > cwnd-limited (pipe ≥ 85% of cwnd) >
    grant-limited (requests pending, nothing granted) > unconstrained.
    Link conditions are shared across flows — that is the honest
    granularity of per-link cumulative gauges.

    A stall is a maximal run of zero-rate ticks lasting at least
    max(k·srtt, 3 sampling ticks).  The flap score counts direction
    {e reversals} in [app.layer] switch events per second — monotone
    ramps don't flap.

    Everything is derived from virtual-time data: for a fixed seed,
    {!to_json} renders byte-identically run after run (CI diffs it). *)

type input = {
  i_times : float array;  (** sampler tick times, seconds *)
  i_series : (string * float array) list;  (** aligned columns; NaN before a series existed *)
  i_scalars : (string * float) list;  (** final counter/gauge readings *)
  i_events : Telemetry.Trace.event list;
  i_duration_s : float;
  i_period_s : float;  (** sampling period, seconds *)
}

val of_telemetry : Telemetry.t -> input
(** Snapshot a finished run's telemetry into an analyzable table. *)

type flow_report = {
  f_name : string;  (** series prefix, e.g. ["mf0"] *)
  f_ticks : int;  (** ticks while the flow existed *)
  f_attribution : (string * float) list;  (** fraction of active ticks per cause *)
  f_mean_rate_bps : float;
  f_stall_windows : (float * float) list;  (** [(start_s, end_s)] *)
  f_stall_frac : float;  (** fraction of active ticks inside a stall window *)
}

type status = Pass | Warn

type verdict = { v_check : string; v_status : status; v_detail : string }

type t = {
  r_flows : flow_report list;
  r_jain : float;  (** Jain index over per-flow mean rates; 1.0 for < 2 flows *)
  r_drops : (string * int) list;  (** queue / channel / down / delivered_pkts totals *)
  r_layer_switches : int;
  r_layer_reversals : int;
  r_flap_per_s : float;
  r_verdicts : verdict list;
  r_overall : status;
}

val analyze : input -> t
(** Run every analysis.  A stall is a zero-rate run lasting at least
    max(4 srtt, 3 sample ticks). *)

val to_json : t -> Cm_util.Json.t
(** Deterministic JSON (the CI-diffed channel). *)

val to_markdown : t -> string
(** Human-readable report: verdict table, per-flow attribution table,
    drop causes, flap summary. *)
