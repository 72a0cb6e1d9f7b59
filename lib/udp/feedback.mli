(** Application-level acknowledgments for UDP CM clients.

    "All UDP-based clients must implement application level data
    acknowledgements in order to make use of the CM" (paper §3.1).  This
    module is that machinery, factored out so every UDP application does
    not re-implement it: the receiver side acknowledges data packets
    (optionally batching feedback, the knob behind Fig. 10), and the
    sender side converts acks into the [(nsent, nrecd, lossmode, rtt)]
    reports that [cm_update] expects, including gap-based loss detection
    with one Transient report per window and timeout-based Persistent
    detection. *)

open Cm_util
open Eventsim

type Netsim.Packet.payload += Data of { seq : int; bytes : int; ts : Time.t }
      (** A data packet: sequence number, payload size, sender timestamp. *)

type Netsim.Packet.payload +=
  | Ack of { max_seq : int; count : int; bytes : int; ts_echo : Time.t }
      (** Feedback: highest sequence seen, and how many packets/bytes
          arrived since the previous ack; echoes the newest timestamp. *)

(** {1 Receiver side} *)

module Receiver : sig
  type t
  (** Acknowledgment generator state. *)

  val create :
    Engine.t ->
    send_ack:(max_seq:int -> count:int -> bytes:int -> ts_echo:Time.t -> unit) ->
    ?batch:int * Time.span ->
    unit ->
    t
  (** [create eng ~send_ack ()] acknowledges every data packet
      immediately.  With [~batch:(n, d)] feedback is sent once [n] packets
      accumulate or [d] elapses since the first unacknowledged packet —
      the paper's delayed feedback of [min(500 acks, 2000 ms)]. *)

  val on_data : t -> seq:int -> bytes:int -> ts:Time.t -> unit
  (** Process one arriving data packet. *)

  val packets_received : t -> int
  (** Total data packets seen. *)

  val bytes_received : t -> int
  (** Total payload bytes seen. *)

  val flush : t -> unit
  (** Force out any pending batched acknowledgment. *)
end

(** {1 Sender side} *)

module Sender : sig
  type t
  (** Loss-detection and RTT bookkeeping for a data sender. *)

  val create :
    Engine.t ->
    on_report:
      (nsent:int -> nrecd:int -> loss:Cm.Cm_types.loss_mode -> rtt:Time.span option -> unit) ->
    ?timeout_floor:Time.span ->
    ?on_starve:(unit -> unit) ->
    unit ->
    t
  (** [create eng ~on_report ()] invokes [on_report] whenever feedback
      resolves outstanding data, with exactly what [cm_update] takes:
      [nsent] payload bytes resolved by this feedback event, [nrecd] of
      those that arrived, the congestion classification [loss], and a
      fresh RTT sample if the ack allowed one.  Labeled arguments rather
      than a record, so a report allocates nothing but the RTT sample's
      [Some].  A 100 ms maintenance timer declares data lost
      (Persistent) when nothing has been heard for
      [max(2·srtt, timeout_floor)] (floor default 500 ms).  The timer
      parks ({!Eventsim.Timer.park}) while nothing is outstanding and
      {!on_transmit} wakes it on its phase, so an idle sender queues no
      events.

      With [~on_starve], the same timer calls it to solicit the receiver
      when feedback has starved for 200 ms while data is outstanding,
      backing off exponentially (doubling up to 3.2 s) until feedback is heard again —
      feedback may be the only thing the network is losing. *)

  val next_seq : t -> int
  (** Sequence number to stamp on the next data packet. *)

  val on_transmit : t -> bytes:int -> int
  (** Record a transmission; returns the sequence number consumed. *)

  val on_ack : t -> max_seq:int -> count:int -> bytes:int -> ts_echo:Time.t -> unit
  (** Process incoming feedback; may emit one or more reports. *)

  val resync : t -> unit
  (** The receiver's acknowledgment state is gone (e.g. its CM agent
      crashed and restarted): declare everything outstanding lost with one
      Persistent report and fast-forward past it, so the sender backs off
      to its floor and restarts cleanly instead of wedging on
      acknowledgments that will never come. *)

  val solicits : t -> int
  (** Starvation solicitations issued (see [on_starve]). *)

  val outstanding_packets : t -> int
  (** Transmitted packets not yet resolved. *)

  val outstanding_bytes : t -> int
  (** Transmitted bytes not yet resolved (O(1): the ledger is a ring of
      byte counts over the contiguous unresolved seq range, plus a count
      of seqs sent after feedback that acknowledged beyond [next_seq],
      which only a loss declaration resolves). *)

  val srtt : t -> Time.span option
  (** Smoothed RTT from ack echoes. *)

  val shutdown : t -> unit
  (** Stop the maintenance timer. *)
end
