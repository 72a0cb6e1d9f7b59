(** Named-metrics registry: counters, gauges, and log-bucketed histograms.

    The registry is the pull side of the telemetry layer: components
    register metrics once at wiring time and update them with O(1),
    allocation-free operations on the hot path ([incr] is one mutable
    store; [observe] is one [frexp] and two stores).  Gauges are read-only
    closures sampled on demand — by the {!Sampler}'s periodic virtual-time
    tick or by a final {!snapshot}.

    Iteration order is registration order, which in a deterministic
    simulation is itself deterministic — snapshots and CSV columns come
    out byte-identical across same-seed runs. *)

open Cm_util

type t
(** A registry. *)

type counter
type gauge
type histogram

val create : unit -> t
(** Empty registry. *)

(** {1 Counters} *)

val counter : t -> string -> counter
(** [counter t name] registers (or retrieves, if already registered as a
    counter) a monotonically increasing integer counter.  Raises
    [Invalid_argument] if [name] is registered as another kind. *)

val incr : ?by:int -> counter -> unit
(** Add [by] (default 1).  O(1), no allocation. *)

val count : counter -> int

(** {1 Gauges} *)

val gauge : t -> string -> (unit -> float) -> gauge
(** [gauge t name read] registers a gauge whose current value is
    [read ()].  Raises [Invalid_argument] on duplicate names. *)

val sample : gauge -> float

(** {1 Histograms} *)

val histogram : t -> string -> histogram
(** [histogram t name] registers (or retrieves) a log-bucketed
    {!Stats.Histogram}. *)

val observe : histogram -> float -> unit
(** Record one value.  O(1), no allocation. *)

val hist : histogram -> Stats.Histogram.t
(** The underlying histogram, for quantile queries. *)

(** {1 Registry-wide operations} *)

val gauges : t -> gauge list
(** All gauges, in registration order. *)

val reset : t -> unit
(** Zero every counter and histogram.  Gauges are unaffected (they read
    live component state). *)

type snapshot_value =
  | Sc of int  (** counter value *)
  | Sg of float  (** gauge reading *)
  | Sh of Stats.Histogram.t  (** histogram (live; copy via merge if needed) *)

val snapshot : t -> (string * snapshot_value) list
(** Point-in-time view of every metric, in registration order.  Gauges
    are read at call time. *)

val to_json : t -> Json.t
(** The snapshot as a JSON object: counters as ints, gauges as floats,
    histograms as [{count, sum, min, max, p50, p90, p99}]. *)
