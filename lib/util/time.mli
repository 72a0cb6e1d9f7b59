(** Simulated time.

    All simulation timestamps and durations are integer nanoseconds.  Using
    integers keeps event ordering exact and the simulation deterministic;
    OCaml's 63-bit native integers give ~292 years of range, far beyond any
    experiment. *)

type t = int
(** An absolute timestamp, in nanoseconds since the simulation epoch. *)

type span = int
(** A duration, in nanoseconds.  Spans may be negative (e.g. a difference
    of two timestamps), though most APIs expect non-negative spans. *)

val zero : t
(** The simulation epoch. *)

external ns : int -> span = "%identity"
(** [ns n] is a span of [n] nanoseconds. *)

val us : int -> span
(** [us n] is a span of [n] microseconds. *)

val ms : int -> span
(** [ms n] is a span of [n] milliseconds. *)

val sec : float -> span
(** [sec s] is a span of [s] seconds, rounded to the nearest nanosecond. *)

val to_float_s : t -> float
(** [to_float_s t] is [t] expressed in seconds. *)

val to_float_ms : t -> float
(** [to_float_ms t] is [t] expressed in milliseconds. *)

val to_float_us : t -> float
(** [to_float_us t] is [t] expressed in microseconds. *)

external add : t -> span -> t = "%addint"
(** [add t d] is the timestamp [d] after [t]. *)

external diff : t -> t -> span = "%subint"
(** [diff a b] is [a - b]. *)

val min : t -> t -> t
(** Earlier of two timestamps.  [min], [max] and [compare] are [Int]'s
    integer code, where [Stdlib.min] is a polymorphic compare; but a call
    from another unit is an indirect call (libraries build with
    [-opaque]), so per-event code uses [Int.min]/[max]/[compare], which
    inline. *)

val max : t -> t -> t
(** Later of two timestamps. *)

val compare : t -> t -> int
(** Total order on timestamps. *)

val pp : Format.formatter -> t -> unit
(** Pretty-print a timestamp with an adaptive unit (ns/µs/ms/s). *)
