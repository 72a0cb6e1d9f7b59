(** Exponentially weighted moving average.

    Used for smoothed RTT and rate estimates, following the TCP
    [srtt = (1-g)·srtt + g·sample] form. *)

type t
(** Mutable EWMA state. *)

val create : gain:float -> t
(** [create ~gain] builds an empty estimator; the first sample initializes
    the average directly.  [gain] must be in (0, 1]. *)

val update : t -> float -> unit
(** Fold one sample into the average.  Called from another module, the
    float argument is boxed; per-packet callers use the two functions
    below, which take integers and allocate nothing. *)

val update_int : t -> int -> unit
(** [update_int t n] is [update t (float_of_int n)]. *)

val update_ratio : t -> int -> int -> unit
(** [update_ratio t num den] is
    [update t (float_of_int num /. float_of_int den)]. *)

val value : t -> float
(** Current estimate; [nan] before any sample. *)

val int_value : t -> int
(** [int_of_float (value t)], with no float box: the per-packet form of
    {!value}.  Unspecified before any sample. *)

val initialized : t -> bool
(** Whether at least one sample has been folded in. *)

val reset : t -> unit
(** Forget all samples. *)
