(** §4.1 microbenchmark: connection establishment time.

    The paper reports "no appreciable difference" in connection setup
    between TCP/CM and TCP/Linux: [cm_open] adds only flow-table work.
    We measure SYN-to-established latency for both, plus the CM flow
    bookkeeping cost in isolation. *)

type result = {
  linux_setup_us : float;  (** Native connect-to-established, µs. *)
  cm_setup_us : float;  (** TCP/CM connect-to-established, µs. *)
  cm_open_close_ns : float;  (** Mean wall-clock cost of one cm_open+cm_close pair, ns (host benchmark). *)
}

val spec : Cm_spec.Spec.t
(** The 100 Mbit/s, 100 µs pipe. *)

val run : Exp_common.params -> result
(** Run both microbenchmarks. *)

val print : result -> unit
(** Print the comparison. *)
