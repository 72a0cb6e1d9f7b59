(** ttcp-like bulk transfers (paper §4.1).

    A long unidirectional transfer: one TCP connection that queues every
    byte at once and a receiver that counts them.  The transfer record
    exists before the connection does, so an observer can be set before
    the transfer starts; it then reads delivered bytes, the finish time
    and the sender's CPU baseline during the run or after it. *)

open Cm_util
open Netsim

type t = private {
  bytes : int;  (** What the transfer sends. *)
  mutable delivered : int;  (** Payload bytes delivered to the receiving app so far. *)
  mutable finished_at : Time.t option;  (** When the last byte was delivered. *)
  mutable sender_busy0 : Time.span;
      (** The sending CPU's busy time right after the connection was
          opened and its data queued: the baseline of a sender CPU
          utilisation.  0 until the transfer starts. *)
  mutable observer : int -> unit;  (** Set by {!observe}; [ignore] until then. *)
}

val create : bytes:int -> t
(** A transfer of [bytes], not yet started. *)

val observe : t -> (int -> unit) -> unit
(** Set the transfer's one observer, replacing any earlier one: it sees
    each delivery's byte count, after [delivered] (and, on the last,
    [finished_at]) has counted it.  Nothing is kept per delivery
    otherwise. *)

val tcp_push :
  t -> src:Host.t -> dst_host:Host.t -> port:int -> ?driver:Tcp.Conn.driver -> unit -> unit
(** Start the transfer now: a receiver on [dst_host]:[port], a connection
    from [src] ([driver] default {!Tcp.Conn.Native}), every byte queued,
    then the close (the FIN follows the last byte). *)
