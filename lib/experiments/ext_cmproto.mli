(** Extension experiment: the CM protocol vs. application feedback.

    The paper's buffered UDP API makes the {e application} acknowledge —
    paying a recv, two gettimeofdays and an update ioctl per feedback
    packet in user space (Table 1).  The CM protocol (§5's "remains to be
    studied" alternative, implemented in [lib/cmproto]) moves
    acknowledgment into the receiving host's CM: the sending application
    pays only its send syscall.

    This experiment reruns the Fig. 6 measurement at 168-byte packets for
    both designs and reports per-packet wall time and boundary-crossing
    counts. *)

type row = {
  design : string;
  us_per_packet : float;
  ops : (string * float) list;  (** Sender boundary crossings per packet. *)
}

val spec : Cm_spec.Spec.t
(** {!Fig6.spec}, the 100 Mbit/s, 50 µs LAN pipe, with the CM protocol
    session's 20,000 packets of 168 B from ["a"] to ["b"]. *)

val run : Exp_common.params -> row list
(** Buffered (application feedback) vs CM protocol. *)

val print : row list -> unit
(** Print the comparison. *)
