(** Addresses and flow identification.

    Hosts are identified by small integers (stand-ins for IP addresses);
    an endpoint pairs a host with a port.  The 5-tuple [flow] is what both
    the host demultiplexer and the CM's flow table key on — the paper's
    "flow parameters (addresses, ports, protocol field)". *)

type proto = Tcp | Udp
(** Transport protocol number. *)

type endpoint = { host : int; port : int }
(** Transport endpoint. *)

type flow = {
  src : endpoint;
  dst : endpoint;
  proto : proto;
  dscp : int;  (** IP differentiated-services codepoint (0 = best effort). *)
}
(** A unidirectional transport flow (sender's perspective). *)

val endpoint : host:int -> port:int -> endpoint
(** Build an endpoint. *)

val flow : ?dscp:int -> src:endpoint -> dst:endpoint -> proto:proto -> unit -> flow
(** Build a flow key ([dscp] defaults to 0; must be in [0, 63]). *)

val reverse : flow -> flow
(** Swap source and destination (the return path of a flow). *)

val equal_endpoint : endpoint -> endpoint -> bool
(** Structural equality on endpoints. *)

val equal_flow : flow -> flow -> bool
(** Structural equality on flows (including DSCP). *)

val strip_dscp : flow -> flow
(** The same flow with the DSCP zeroed — demultiplexing keys ignore the
    service class; only CM aggregation may honour it. *)

val pp_flow : Format.formatter -> flow -> unit
(** Render as [proto src -> dst]. *)

val hash_flow : flow -> int
(** Hash of the six int fields by integer arithmetic, with no runtime
    call: equal flows hash equal.  Not [Hashtbl.hash]'s value, so a
    [Flow_table]'s iteration order differs from a generic table's. *)

module Flow_table : Hashtbl.S with type key = flow
(** Hash tables keyed by flows: {!hash_flow} and {!equal_flow}, so a
    probe touches the key's three blocks with loads only. *)
