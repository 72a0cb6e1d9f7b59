(** Time-series recorder for experiment output.

    Collects (time, value) samples and turns them into the binned series
    the paper's figures plot: instantaneous rates over windows, or raw
    sampled values. *)

type t
(** A recorder. *)

type point = { time : Time.t; value : float }
(** One sample. *)

val create : unit -> t
(** Empty recorder. *)

val record : t -> Time.t -> float -> unit
(** Append a sample.  Times should be non-decreasing (they are when driven
    from a simulation); out-of-order samples are accepted but binning
    assumes rough monotonicity. *)

val points : t -> point list
(** All samples, oldest first. *)

val length : t -> int
(** Number of samples. *)

val last : t -> point option
(** Most recent sample. *)

val rate_series : t -> bin:Time.span -> until:Time.t -> (Time.t * float) list
(** Treat samples as event sizes (e.g. bytes) and compute a rate per bin:
    for each window of width [bin] up to [until], sum of values in the
    window divided by the window in seconds.  Bin timestamps are window
    starts. *)

val sampled_series : t -> bin:Time.span -> until:Time.t -> (Time.t * float) list
(** Piecewise-constant resampling: for each bin boundary, the value of the
    latest sample at or before it ([nan] before the first sample). *)

val changes : t -> int
(** Samples whose value differs from the previous sample's. *)
