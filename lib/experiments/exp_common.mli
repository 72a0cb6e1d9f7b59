(** Shared plumbing for the paper-reproduction experiments. *)

open Cm_util

open Netsim

type telemetry_request = { period : Time.span; mutable captured : Telemetry.t list }
(** Ask the experiments to run instrumented: each simulated system gets a
    {!Telemetry.t} sampling every [period], and the instances are
    accumulated in [captured] (newest first) for the caller to export. *)

type params = {
  seed : int;
  full : bool;
  telemetry : telemetry_request option;
  prof : bool;
  recorder : string option;
}
(** [seed] drives every RNG; [full] enables the long variants (e.g. the
    10^6-buffer point of Figs. 4–5).  The other three ask every simulated
    system for observation, honoured by {!with_system} and {!watch}:
    [telemetry] (default [None]) wires metrics / time series / tracing;
    [prof] arms the event-core profiler (summary to stderr — wall clock is
    nondeterministic); [recorder] (a directory) attaches a bounded flight
    ring that dumps the last events on faults. *)

val default_params : params
(** [seed = 42], [full = false], everything else off. *)

val request_telemetry : ?period:Time.span -> unit -> telemetry_request
(** A fresh request sampling every [period] (default 100 ms virtual). *)

type system
(** One simulated system: an engine plus the observation [params] asked
    for. *)

val with_system : params -> (system -> 'a) -> 'a
(** [with_system params body] builds a fresh engine (profiler armed when
    [params.prof]) and runs [body] on it.  When [body] returns, the
    telemetry sampler {!watch} started is stopped and, when [params.prof],
    the profiler summary is printed to {e stderr} — never to stdout, which
    carries the seeded byte-diffed output. *)

val engine : system -> Eventsim.Engine.t

val watch :
  system -> ?tag:string -> ?links:(string * Link.t) list -> ?cm:Cm.t -> unit -> unit
(** Call once per system, after building the components to observe: picks
    a telemetry instance and attaches the named [links] and the [cm] to it
    ([attach_telemetry], the components' one entry point).  The instance
    is a full one (recorded in the request's [captured] list) when
    [params.telemetry] is set, else a bounded one (a ring of the last
    {!Telemetry.Recorder.default_capacity} events, no sampler) handed to a
    flight recorder tagged [tag] (dumps + crash escape hook) when
    [params.recorder] is set.  Zero work when neither is. *)

val telemetry : system -> Telemetry.t option
(** The telemetry instance {!watch} created, if any (bounded under
    [params.recorder]). *)

val recorder : system -> Telemetry.Recorder.t option
(** The flight recorder {!watch} created, if any. *)

val kbps : float -> float
(** Bits/s to the paper's KBytes/s. *)

val print_header : string -> unit
(** Banner line for one experiment's output. *)

val print_row : string -> unit
(** One data row (plain [print_endline], named for greppability). *)

module Json = Cm_util.Json
(** Deterministic JSON (alias of {!Cm_util.Json}: [%.6g] floats, NaN as
    [null]), so a seeded experiment's JSON is byte-identical across
    runs — the machine-readable channel for scenario results. *)

val measured_bulk :
  params ->
  use_cm:bool ->
  spec:Cm_spec.Spec.t ->
  ?costs:Costs.t ->
  ?duration:Time.span ->
  unit ->
  float * float
(** One bulk TCP run on a fresh pipe built from [spec]: a
    {!Cm_spec.Spec.pipe} with a {!Cm_spec.Spec.cm} on host a and one
    {!Cm_spec.Spec.bulk} flow group from a to b, started by
    {!Cm_spec.Launch.run}.  With [use_cm] the transfer runs TCP/CM over
    a's CM; without, it is launched with stock TCP on the same host —
    the paper's TCP/Linux baseline, whose kernel has a CM the
    connection does not use (so both runs watch the same CM).  Returns
    [(goodput_bps, sender_cpu_utilization)], the CPU busy time counted
    from the transfer's baseline ({!Cm_apps.Bulk.t.sender_busy0}).
    Both figures are over the time to the last byte, the busy time read
    when it is delivered (the FIN exchange and later acks are not
    charged).  Without [?duration] the run ends at the first 100 ms step
    boundary after the last byte; with it the run is time-limited, and
    if the last byte has not arrived by then both figures are over the
    whole window. *)
