(** Static routers.

    Forwards packets by destination host id.  Queueing and serialization
    happen inside the outgoing {!Link}, so the router itself is just a
    routing table. *)

type t
(** A router. *)

val create : unit -> t
(** A router with an empty table. *)

val add_route : t -> dst:int -> (Packet.t -> unit) -> unit
(** [add_route r ~dst out] forwards packets addressed to host [dst] via
    [out] (normally a {!Link.send}).  Replaces any previous route. *)

val forward : t -> Packet.t -> unit
(** Route one packet; packets with no route are dropped.  Use
    [forward r] as a link sink. *)
