(** Deterministic pseudo-random number generation.

    A self-contained xoshiro256** generator seeded explicitly, so every
    simulation run is reproducible from its seed.  Library code must never
    use [Stdlib.Random]'s global state. *)

type t
(** Generator state (mutable). *)

val create : seed:int -> t
(** [create ~seed] builds a generator deterministically from [seed]
    (any int, including 0) via SplitMix64 expansion. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Used to give each traffic source its own stream. *)

val int : t -> int -> int
(** [int t bound] is uniform in \[0, bound); [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in \[0, bound). *)

val bool : t -> bool
(** Fair coin flip. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val uniform_span : t -> Time.span -> Time.span
(** [uniform_span t d] is a span uniform in \[0, d). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
