(** Online and batch statistics used by experiments and tests. *)

type t
(** A running accumulator (Welford's algorithm): count, mean, variance,
    min, max.  O(1) space regardless of sample count. *)

val create : unit -> t
(** Fresh accumulator. *)

val add : t -> float -> unit
(** Record one sample. *)

val count : t -> int
(** Number of samples recorded. *)

val mean : t -> float
(** Sample mean; [nan] if no samples. *)

val variance : t -> float
(** Unbiased sample variance; [0.] with fewer than two samples. *)

val stddev : t -> float
(** Square root of {!variance}. *)

val min_value : t -> float
(** Smallest sample; [nan] if none. *)

val max_value : t -> float
(** Largest sample; [nan] if none. *)

val sum : t -> float
(** Sum of all samples. *)

val merge : t -> t -> t
(** [merge a b] is an accumulator equivalent to having seen both streams. *)

val percentile : float array -> float -> float
(** [percentile samples p] is the [p]-th percentile ([0. <= p <= 100.]) by
    linear interpolation.  Sorts a copy; [nan] on an empty array. *)

val median : float array -> float
(** [median s] is [percentile s 50.]. *)

val pp : Format.formatter -> t -> unit
(** Render as [n=… mean=… sd=… min=… max=…]. *)

(** Log-bucketed histogram with O(1) [observe] and quantile estimation
    over the buckets.

    Buckets are powers of two from 2{^-20} up; [observe] finds the bucket
    with [frexp] (no log, no allocation), so it is safe on simulator hot
    paths.  Quantiles interpolate linearly within a bucket and clamp to
    the exactly-tracked min/max, so small sample counts do not produce
    estimates outside the observed range.  This is the histogram the
    telemetry metrics registry records into; experiments should use
    {!Histogram.quantile} instead of recomputing percentiles ad hoc from
    raw sample arrays when streaming. *)
module Histogram : sig
  type t

  val create : unit -> t
  (** Empty histogram. *)

  val observe : t -> float -> unit
  (** Record one value.  Values [<= 0] (and NaN) land in the lowest
      bucket. *)

  val count : t -> int
  (** Number of observations. *)

  val sum : t -> float
  (** Sum of observed values. *)

  val mean : t -> float
  (** Mean of observed values; [nan] if empty. *)

  val min_value : t -> float
  (** Smallest observation (exact); [nan] if empty. *)

  val max_value : t -> float
  (** Largest observation (exact); [nan] if empty. *)

  val quantile : t -> float -> float
  (** [quantile t q] estimates the [q]-th quantile ([0. <= q <= 1.]) by
      linear interpolation inside the covering bucket, clamped to the
      exact min/max.  [nan] if empty. *)

  val merge : t -> t -> t
  (** Elementwise bucket sum: equivalent to having observed both
      streams.  Inputs are not mutated. *)

  val reset : t -> unit
  (** Drop all observations. *)

  val pp : Format.formatter -> t -> unit
  (** Render as [n=… mean=… p50=… p99=… max=…]. *)
end
