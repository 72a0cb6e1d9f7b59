(** End hosts.

    A host owns a CPU, a cost profile, a default route (its access link),
    and a demultiplexer from incoming packets to bound sockets.  The IP
    output path runs registered transmit hooks before handing the packet
    to the route — this is where the CM's [cm_notify] charging attaches
    ("we modify the IP output routine", paper §2.1.3) without the network
    layer depending on the CM. *)

open Eventsim

type t
(** A host. *)

type handler = Packet.t -> unit
(** A bound socket's receive entry point. *)

val create : Engine.t -> id:int -> ?costs:Costs.t -> unit -> t
(** [create eng ~id ()] is a host with no route and no bindings.
    Default cost profile: {!Costs.zero}. *)

val id : t -> int
(** The host's address. *)

val engine : t -> Engine.t
(** The engine driving this host. *)

external cpu : t -> Cpu.t = "%field0"
(** The host's CPU. *)

external costs : t -> Costs.t = "%field1"
(** The host's cost profile. *)

val attach_route : t -> (Packet.t -> unit) -> unit
(** Set the default output (normally a {!Link.send}). *)

val add_tx_hook : t -> (Packet.t -> unit) -> unit
(** Register a hook run on every outgoing packet before transmission. *)

val add_rx_filter : t -> (Packet.t -> Packet.t option) -> unit
(** Register a filter run on every incoming packet before
    demultiplexing.  A filter may pass the packet on (possibly rewritten,
    e.g. with a protocol header stripped) or return [None] to consume it.
    Filters run in registration order. *)

val ip_output : t -> Packet.t -> unit
(** Send a packet: run transmit hooks, then the route.  Raises
    [Failure] if no route is attached. *)

val deliver : t -> Packet.t -> unit
(** Entry point for packets arriving from a link: demultiplex to the
    connected-flow handler if one matches, else to the listening
    [(proto, port)] handler, else count the packet as unmatched. *)

val bind : t -> Addr.proto -> port:int -> handler -> unit
(** Register a listening handler for a local port.  Raises
    [Invalid_argument] if the port is taken. *)

val unbind : t -> Addr.proto -> port:int -> unit
(** Remove a listening binding (no-op if absent). *)

val connect_demux : t -> Addr.flow -> handler -> unit
(** Register a handler for packets whose 5-tuple matches [flow] exactly
    (the flow is expressed in the direction of the *incoming* packets). *)

val disconnect_demux : t -> Addr.flow -> unit
(** Remove an exact-match binding (no-op if absent). *)

val alloc_port : t -> int
(** A fresh ephemeral port (≥ 32768), never reused by this host. *)

val unmatched : t -> int
(** Packets delivered to no handler. *)

val tx_packets : t -> int
(** Packets sent through {!ip_output}. *)

val tx_bytes : t -> int
(** Bytes sent through {!ip_output}. *)
