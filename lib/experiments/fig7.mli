(** Figure 7: sharing congestion state across sequential connections.

    A client fetches the same 128 KB file nine times, each request started
    500 ms after the previous one, over a wide-area path.  With a plain
    server every connection slow-starts from scratch; with a CM server the
    per-destination macroflow retains the congestion window and RTT
    estimate, so later fetches skip slow start.  The paper reports ~40 %
    faster completions for the later requests, and a slightly {e slower}
    first CM request (initial window 1 vs Linux's 2). *)

type row = {
  request : int;  (** 1-based request number. *)
  linux_ms : float;  (** Completion time with the native server, ms. *)
  cm_ms : float;  (** Completion time with the TCP/CM server, ms. *)
}

val spec : Cm_spec.Spec.t
(** The 10 Mbit/s, 37.5 ms wide-area pipe and the client's nine 128 KB
    fetches, 500 ms apart, from a web server on host ["b"]. *)

val run : ?count:int -> ?file_bytes:int -> Exp_common.params -> row list
(** Defaults: 9 requests of 128 KB. *)

val run_side : Exp_common.params -> use_cm:bool -> count:int -> file_bytes:int -> float list
(** One side of the comparison (completion times, ms) — exposed so the
    trace driver can run just the instrumented CM side. *)

val print : row list -> unit
(** Print paper-shaped rows. *)
