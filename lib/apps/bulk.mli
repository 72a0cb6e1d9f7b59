(** ttcp-like bulk transfer drivers (paper §4.1).

    Long unidirectional transfers used by the kernel-overhead experiments:
    a TCP sender pushing a given number of fixed-size buffers.  Each run
    reports completion time, goodput and CPU utilization of the sending
    host. *)

open Cm_util
open Netsim

type result = {
  transferred : int;  (** Payload bytes delivered to the receiving app. *)
  duration : Time.span;  (** First byte queued to last byte delivered. *)
  throughput_bps : float;  (** Goodput in bits per second. *)
  sender_cpu_utilization : float;  (** Busy fraction of the sending CPU. *)
}
(** Outcome of a bulk run. *)

val tcp_push :
  src:Host.t ->
  dst_host:Host.t ->
  port:int ->
  buffers:int ->
  buffer_bytes:int ->
  ?driver:Tcp.Conn.driver ->
  ?config:Tcp.Conn.config ->
  on_done:(result -> unit) ->
  unit ->
  unit
(** Send [buffers × buffer_bytes] over one TCP connection from [src] to a
    receiver created on [dst_host]:[port]; invoke [on_done] when the
    receiver has every byte. *)
