(** The Congestion Manager protocol (receiver-side CM feedback).

    The paper's implementation deliberately changes nothing at the
    receiver, so every UDP application must implement its own
    acknowledgments (§3.1) and pay user-space feedback costs (§4.2).  Its
    Limitations section points at the alternative from the original CM
    architecture paper \[3\]: a kernel-to-kernel {e CM protocol} where the
    receiving host's CM acknowledges on the applications' behalf — "but
    remains to be studied".  This library studies it.

    Mechanics: the sending CM prepends a small header (sequence number,
    timestamp) to each data packet of participating flows; the receiving
    host's {!Receiver_agent} strips the header before the packet reaches
    the (unmodified) application and periodically sends aggregate
    feedback back to the sending host's {!Sender_agent}, which turns it
    into [cm_update] calls.  Applications send and receive exactly as
    without the CM: no acknowledgment code, no recv/gettimeofday/update
    crossings.

    {b Fault tolerance.}  The feedback travels over the same lossy
    network it measures, so the protocol defends its own control plane:
    feedback carries {e cumulative} per-epoch totals under a per-flow
    feedback sequence number (any one packet supersedes all earlier ones
    — duplicates and reordered stragglers are dropped whole, with
    counters), timestamp echoes are sanity-clamped so reordering can
    never produce a negative RTT sample, a starving sender solicits the
    receiver with exponential backoff ({!Session} wiring of
    {!Udp.Feedback.Sender}'s [on_starve]), and a crashed/restarted
    receiver agent re-announces itself with a new epoch via a [Resync]
    payload, upon which the sender discards its stale per-flow picture
    (one Persistent report) instead of wedging.

    The [ext_cmproto] experiment quantifies the saving against the
    paper's buffered (application-feedback) API; the [feedback_faults]
    family exercises the defenses. *)

open Cm_util
open Netsim

val header_bytes : int
(** Wire overhead added to each data packet (8 bytes: sequence +
    compressed timestamp). *)

type Packet.payload +=
  | Data of { seq : int; ts : Time.t; inner : Packet.payload }
        (** A data packet wrapped with the CM header. *)
  | Feedback of {
      data_flow : Addr.flow;  (** The (sender-side) flow being acknowledged. *)
      epoch : int;  (** Receiver-agent incarnation. *)
      fb_seq : int;  (** Per-flow feedback sequence, monotone per epoch. *)
      max_seq : int;  (** Highest data sequence seen. *)
      total_count : int;  (** Cumulative packets received this epoch. *)
      total_bytes : int;  (** Cumulative charged bytes this epoch. *)
      ts_echo : Time.t;  (** Newest echoed sender timestamp; 0 = none. *)
    }  (** Receiver-CM feedback for one flow (cumulative encoding). *)
  | Resync of { data_flow : Addr.flow; epoch : int }
        (** A restarted receiver agent re-announcing itself: its
            acknowledgment state for [data_flow] is gone. *)
  | Solicit of { data_flow : Addr.flow }
        (** A starving sender asking the receiver agent for feedback. *)

val is_control : Packet.t -> bool
(** True for CM feedback and control traffic (Feedback / Resync /
    Solicit) — the classifier {!Cm_dynamics.Control_faults} injectors
    use to target only the CM's control plane. *)

val feedback_wire_bytes : int
(** Wire size of a feedback packet (constant, 40 bytes). *)

(** Receiving host: strips CM headers, generates feedback. *)
module Receiver_agent : sig
  type t
  (** One per receiving host. *)

  val install : Host.t -> ?ack_every:int -> unit -> t
  (** Register the agent's receive filter on the host.  Feedback for a
      flow is emitted after [ack_every] data packets (default 2, like
      delayed acks) or 100 ms after the first unacknowledged packet. *)

  val crash : t -> unit
  (** Simulate the agent's kernel state vanishing: all per-flow
      acknowledgment state is dropped and, while down, CM-wrapped data
      is discarded (there is nobody to strip the header) and
      solicitations go unanswered. *)

  val restart : t -> unit
  (** Bring a crashed agent back with a fresh incarnation ([epoch + 1]).
      The first mid-stream data packet (or solicitation) of a flow it no
      longer knows triggers a [Resync] announcement to the sender. *)

  val feedback_sent : t -> int
  (** Feedback packets emitted. *)

  val data_seen : t -> int
  (** CM-wrapped data packets processed. *)

  val epoch : t -> int
  (** Current incarnation (0 until the first restart). *)

  val dropped_while_down : t -> int
  (** Wrapped data packets discarded while crashed. *)

  val resyncs_sent : t -> int
  (** Resync announcements emitted. *)
end

(** Sending host: consumes feedback, drives [cm_update]. *)
module Sender_agent : sig
  type t
  (** One per sending host (requires the host's CM). *)

  type counters = {
    feedback_received : int;  (** Feedback packets consumed. *)
    orphan_feedback : int;  (** Feedback for flows no longer open. *)
    dup_feedback : int;  (** Duplicate / reordered-stale feedback dropped. *)
    stale_feedback : int;  (** Old-epoch feedback and resyncs dropped. *)
    bad_echoes : int;  (** Future timestamp echoes clamped (sample dropped). *)
    resyncs : int;  (** Receiver-restart resynchronizations performed. *)
  }
  (** Defense counters: how often each guard fired. *)

  val install : Host.t -> Cm.t -> t
  (** Register the agent's receive filter; feedback and resync packets
      are consumed here and never reach applications. *)

  val register :
    t ->
    Cm.Cm_types.flow_id ->
    on_feedback:(max_seq:int -> count:int -> bytes:int -> ts_echo:Time.t -> unit) ->
    ?on_resync:(unit -> unit) ->
    unit ->
    unit
  (** Subscribe a flow.  [on_feedback] receives deduplicated,
      reorder-merged *deltas* (per-batch packet/byte counts recovered
      from the wire's cumulative totals) — exactly the shape
      {!Udp.Feedback.Sender.on_ack} consumes.  [on_resync] fires when
      the receiver agent is found to have restarted (explicit [Resync]
      or an epoch advance observed on feedback). *)

  val feedback_received : t -> int
  (** Feedback packets consumed. *)

  val orphan_feedback : t -> int
  (** Feedback for flows that are no longer open. *)

  val counters : t -> counters
  (** Snapshot of all defense counters. *)

  val register_gauges : t -> Telemetry.t -> unit
  (** Publish the defense counters as [cmproto.*] telemetry gauges. *)
end

(** A congestion-controlled, CM-protocol-acknowledged datagram session —
    the buffered API of §3.3 with kernel-to-kernel feedback instead of
    application acknowledgments. *)
module Session : sig
  type t
  (** A session bound to one destination. *)

  val create :
    Sender_agent.t ->
    host:Host.t ->
    cm:Cm.t ->
    dst:Addr.endpoint ->
    ?dscp:int ->
    ?port:int ->
    ?queue_limit_pkts:int ->
    unit ->
    t
  (** Open a CM flow to [dst] whose transmissions carry CM headers and
      whose feedback arrives via the agents.  When feedback starves
      while data is outstanding, the session solicits the receiver agent
      with exponential backoff; a receiver-agent restart resynchronizes
      the ledger (outstanding data is declared lost once and the flow
      restarts cleanly). *)

  val send : t -> int -> unit
  (** Queue one datagram (paced by CM grants, like
      {!Udp.Cc_socket.send}). *)

  val queued : t -> int
  (** Datagrams awaiting grants. *)

  val packets_sent : t -> int
  (** Datagrams transmitted. *)

  val bytes_sent : t -> int
  (** Payload bytes transmitted (excluding the CM header). *)

  val unresolved_packets : t -> int
  (** Transmitted datagrams not yet covered by feedback. *)

  val solicits_sent : t -> int
  (** Feedback solicitations issued by the starvation backoff. *)

  val flow : t -> Cm.Cm_types.flow_id
  (** The backing CM flow. *)

  val close : t -> unit
  (** Release the CM flow and socket. *)
end

val feedback_flow : from_host:int -> to_host:int -> Addr.flow
(** The reserved (port 0) host-to-host flow feedback and control packets
    travel on. *)

val unwrap : Packet.payload -> Packet.payload
(** [unwrap p] is the inner payload if [p] is CM-wrapped, else [p]
    (useful in tests and custom receivers). *)
