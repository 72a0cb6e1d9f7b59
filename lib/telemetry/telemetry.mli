(** Telemetry: one instrumented view of a simulated system.

    Bundles the three telemetry primitives around one engine:

    - a {!Metrics} registry (counters / gauges / histograms),
    - a structured {!Trace} (spans + instant events, JSONL and Chrome
      [trace_event] exporters),
    - a periodic virtual-clock {!Sampler} whose CSV is the CM-internals
      time series (cwnd, ssthresh, rate, srtt, pipe, queue depths, drop
      counters, scheduler backlogs).

    Components are wired by the layer that owns them —
    [Link.attach_telemetry], [Cm.attach_telemetry] — and hold only a
    {!Trace.t} (default {!Trace.nil}), so an uninstrumented run pays one
    branch per potential event and nothing more.

    Determinism contract: everything is stamped with virtual time and
    serialized through {!Cm_util.Json}, so a fixed seed produces
    byte-identical JSONL / Chrome / CSV artifacts (asserted in
    [test_telemetry] and in CI). *)

open Cm_util

module Metrics = Metrics
module Trace = Trace
module Sampler = Sampler

module Prof = Prof
(** Event-core profiler rendering (measurement lives in
    {!Eventsim.Engine}). *)

module Recorder = Recorder
(** Flight recorder: dumps a bounded trace (the last N events) on
    faults. *)

type t

val create : Eventsim.Engine.t -> ?period:Time.span -> ?trace_capacity:int -> unit -> t
(** A telemetry instance sampling every [period] (default 100 ms of
    virtual time).  The sampler starts immediately (first tick one period
    in) and always carries [engine.pending] / [engine.events] columns.

    With [trace_capacity] the instance is {e bounded}: its trace is a ring
    of the last N events ({!Trace.create_ring}) and its sampler never
    starts, because sampled series grow with the run.  Gauges still
    register (the metrics snapshot reads them), but the CSV stays empty
    and the engine gets no sampler timer.  This is the flight recorder's
    sink ({!Recorder}).  Default is the keep-everything buffer. *)

val engine : t -> Eventsim.Engine.t
val metrics : t -> Metrics.t
val trace : t -> Trace.t
val sampler : t -> Sampler.t

val gauge : t -> string -> (unit -> float) -> unit
(** Register a gauge in the registry {e and} subscribe it to the
    sampler — the normal way components expose a time series. *)

val counter : t -> string -> Metrics.counter
val histogram : t -> string -> Metrics.histogram

val stop : t -> unit
(** Stop the sampler timer so the engine's queue can drain. *)

(** {1 Exporters} *)

val export_jsonl : t -> string
(** The trace as JSONL (one event per line). *)

val export_chrome : t -> string
(** The trace as a Chrome [trace_event] document (open in Perfetto). *)

val export_csv : t -> string
(** The sampled time series as CSV. *)

val export_metrics_json : t -> string
(** The metrics snapshot as one JSON object (newline-terminated). *)
