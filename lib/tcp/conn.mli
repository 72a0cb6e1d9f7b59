(** TCP connections.

    A full sender/receiver implementation driven by the simulation engine:
    three-way handshake, cumulative ACKs with delayed-ACK policy,
    out-of-order reassembly, RFC 1323 timestamps for RTT sampling, fast
    retransmit / NewReno-style recovery, retransmission timeouts with
    exponential backoff, FIN teardown with TIME-WAIT, and optional ECN.

    Congestion control is pluggable between:
    - {!Native}: self-contained Reno/NewReno mirroring the paper's
      TCP/Linux baseline (initial window 2 segments, ACK counting);
    - {!Cm_driven}: the paper's TCP/CM — all congestion control offloaded
      to the Congestion Manager through the request/callback API, with
      [cm_update] feedback on ACKs, dupacks and timeouts (§3.2).

    Application data is modeled as byte counts; sequence-number arithmetic,
    reassembly and acknowledgment generation are exact. *)

open Cm_util
open Netsim

type driver =
  | Native  (** Self-contained Reno/NewReno congestion control. *)
  | Cm_driven of Cm.t  (** Offload congestion control to this CM. *)

type config = {
  mss : int;  (** Max payload per segment (default 1448). *)
  rwnd : int;  (** Advertised receive window, bytes (default 1 MiB). *)
  delayed_acks : bool;  (** ACK every 2nd segment + 200 ms timer (default true). *)
  delack_timeout : Time.span;  (** Delayed-ACK timer (default 200 ms). *)
  initial_window_pkts : int;
      (** Native initial window in segments (default 2, like the paper's
          Linux; the CM driver ignores this — the CM starts at 1). *)
  nagle : bool;  (** Nagle's algorithm (default false: bulk senders). *)
  timestamps : bool;  (** RFC 1323 timestamps; without them Karn's rule is used. *)
  ecn : bool;  (** Negotiate ECN and react to echoes (default false). *)
  sack : bool;
      (** Selective acknowledgments (RFC 2018), as Linux 2.2 shipped:
          recovery retransmits only unSACKed holes (default true). *)
  min_rto : Time.span;  (** RTO floor (default 200 ms). *)
  msl : Time.span;  (** TIME-WAIT = 2·MSL (default MSL 1 s, sim-scaled). *)
}
(** Connection parameters. *)

val default_config : config
(** The defaults documented per field above. *)

type state =
  | Closed
  | Listen
  | Syn_sent
  | Syn_received
  | Established
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Last_ack
  | Closing
  | Time_wait
      (** RFC 793 connection states. *)

type t
(** A connection endpoint. *)

type stats = {
  bytes_sent : int;  (** Unique payload bytes transmitted at least once. *)
  bytes_acked : int;  (** Payload bytes cumulatively acknowledged. *)
  bytes_delivered : int;  (** In-order payload bytes handed to the app (receiver side). *)
  segments_out : int;  (** Data segments transmitted, including retransmissions. *)
  acks_out : int;  (** Pure ACK segments transmitted. *)
  retransmits : int;  (** Data segments retransmitted. *)
  fast_retransmits : int;  (** Fast-retransmit events. *)
  timeouts : int;  (** Retransmission-timer expiries. *)
  rtt_samples : int;  (** RTT samples folded into the estimator. *)
}
(** Cumulative counters. *)

val connect : Host.t -> dst:Addr.endpoint -> ?driver:driver -> ?config:config -> unit -> t
(** Active open: allocates an ephemeral port, sends the SYN (with
    retransmission), and — for {!Cm_driven} — performs [cm_open].
    The returned connection is in {!Syn_sent}. *)

type listener
(** A passive endpoint accepting connections on a port. *)

val listen :
  Host.t ->
  port:int ->
  ?driver:driver ->
  ?config:config ->
  on_accept:(t -> unit) ->
  unit ->
  listener
(** Passive open: accepts any number of connections; [on_accept] fires
    when each reaches {!Established}. *)

val send : t -> int -> unit
(** Queue [n] more bytes of application data for transmission. *)

val close : t -> unit
(** No more application data: send FIN after queued data drains. *)

val on_receive : t -> (int -> unit) -> unit
(** Called with byte counts as in-order data is delivered to the app. *)

val set_consume_rate : t -> float option -> unit
(** Model a finite application reader: with [Some bytes_per_second],
    in-order data sits in the receive buffer (shrinking the advertised
    window) until consumed at that rate; [None] (the default) consumes
    instantly.  A window that closes entirely engages the sender's
    persist timer (zero-window probes with exponential backoff). *)

val receive_buffered : t -> int
(** Bytes waiting in the receive buffer (0 with an infinite consumer). *)

val on_established : t -> (unit -> unit) -> unit
(** Called once when the handshake completes. *)

val on_closed : t -> (unit -> unit) -> unit
(** Called once when the connection reaches {!Closed} (after TIME-WAIT). *)

val state : t -> state
(** Current protocol state. *)

val stats : t -> stats
(** Counter snapshot. *)

val srtt : t -> Time.span option
(** Connection's smoothed RTT estimate (local estimator; the CM keeps its
    own shared estimate). *)

val cwnd : t -> int
(** Effective congestion window in bytes: the native controller's window,
    or the CM macroflow's window for {!Cm_driven}. *)

val bytes_unacked : t -> int
(** [snd_nxt − snd_una] in payload bytes. *)

val local : t -> Addr.endpoint
(** Local endpoint (host id, port). *)

val remote : t -> Addr.endpoint
(** Remote endpoint. *)

val cm_flow : t -> Cm.Cm_types.flow_id option
(** The CM flow id backing a {!Cm_driven} connection. *)
