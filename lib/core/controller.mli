(** Pluggable congestion controllers.

    The CM's controller decides the macroflow congestion window.  The
    default is the paper's TCP-compatible window AIMD with slow start and
    byte counting (§2, §4).  Controllers are pluggable — the paper's
    "modularity … encourages experimentation with other non-AIMD
    schemes": the binomial family (Bansal & Balakrishnan) and an
    equation-based controller are provided for the ablation benches.

    {b Representation.}  A controller instance ({!t}) is a record of
    operations over a state type, built once when a factory is made
    ([aimd ()], [binomial ~k ~l ()], [equation ()]) and shared by every
    instance that factory creates, paired with one small mutable state
    record of the instance's own.  The CM keeps a macroflow per
    destination for the whole run, so the instance must be small: an
    AIMD instance is 9 words, where a record of eight closures over
    three refs was 63. *)

type t
(** A controller instance, private to one macroflow. *)

type factory = mtu:int -> t
(** Builds a fresh controller for a macroflow with the given payload MTU. *)

val name : t -> string
(** The controller family, e.g. ["aimd"]. *)

val cwnd : t -> int
(** Current window, payload bytes (≥ 1 MTU). *)

val ssthresh : t -> int
(** Slow-start threshold, payload bytes. *)

val in_slow_start : t -> bool
(** Whether the next ack grows the window exponentially. *)

val on_ack : t -> nbytes:int -> unit
(** [nbytes] payload bytes were received by the peer. *)

val on_loss : t -> Cm_types.loss_mode -> unit
(** A congestion event of the given severity occurred.  Callers gate
    reporting to at most one event per window/RTT, as TCP does. *)

val age : t -> unit
(** Feedback has gone stale while data was outstanding (RFC 2861 in
    spirit): decay the window one step toward the initial window without
    treating it as a congestion event.  Called by the macroflow feedback
    watchdog; repeated calls converge exponentially on the initial
    window. *)

val reset : t -> unit
(** Return to the initial (post-open) state. *)

val aimd : ?initial_window_pkts:int -> ?max_window:int -> unit -> factory
(** The paper's controller: slow start from [initial_window_pkts] MTUs
    (default 1, the CM's conservative choice — Linux used 2), byte-counted
    additive increase of one MTU per window, halving on {!Cm_types.Transient} /
    {!Cm_types.Ecn_echo}, collapse to one MTU plus slow start on
    {!Cm_types.Persistent}.  [max_window] caps the window
    (default 4 MiB); the initial ssthresh is effectively infinite (2^30). *)

val binomial :
  k:float ->
  l:float ->
  ?initial_window_pkts:int ->
  ?max_window:int ->
  unit ->
  factory
(** Binomial congestion control: per acked window, [cwnd += alpha·mtu^(k+1)/cwnd^k];
    on loss, [cwnd -= beta·cwnd^l·mtu^(1-l)].  [(k=0, l=1)] is AIMD;
    [(k=1, l=0)] is IIAD; [(k=0.5, l=0.5)] is SQRT — gentler rate
    oscillation for audio/video, the paper's motivating example.
    Here [alpha = 1.0] and [beta = 0.5]. *)

val iiad : unit -> factory
(** [binomial ~k:1.0 ~l:0.0 ()], named for convenience. *)

val sqrt_ctl : unit -> factory
(** [binomial ~k:0.5 ~l:0.5 ()], named for convenience. *)

val equation : ?initial_window_pkts:int -> ?max_window:int -> unit -> factory
(** TFRC-style equation-based control: the window follows
    [MTU·√(3/(2p))] where [p] is estimated from the EWMA-smoothed
    loss-event interval (bytes acknowledged between congestion events).
    Slow starts until the first loss event.  Much smoother than AIMD —
    the other end of the responsiveness/smoothness trade the binomial
    family explores. *)
