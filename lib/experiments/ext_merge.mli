(** §5 extension: macroflows spanning multiple destinations.

    "A macroflow may thus be extended to cover multiple destination hosts
    behind the same shared bottleneck link.  Efficiently determining such
    bottlenecks remains an open research problem" (§5).  The CM's
    [merge] API already supports the grouping; this experiment supplies
    the missing bottleneck knowledge by construction (a star topology
    where two destinations share one bottleneck) and measures what
    merging buys:

    - {b separate} macroflows (the default): each flow probes the shared
      bottleneck independently — the pair is as aggressive as two TCPs;
    - {b merged}: one congestion window for both — the ensemble behaves
      like a single TCP toward a competing reference flow.

    The reference is a native TCP to a third destination crossing the
    same bottleneck; its achieved share tells us how aggressive the pair
    was. *)

type row = {
  setup : string;
  pair_bytes : int;  (** Bytes the two CC-UDP flows moved (combined). *)
  reference_bytes : int;  (** Bytes the competing native TCP moved. *)
  pair_to_reference : float;  (** Aggressiveness ratio. *)
}

val spec : Cm_spec.Spec.t
(** Host ["server"] (address 0) and three {!Cm_spec.Spec.clients}
    (addresses 1–3) behind one access router, which reaches the server
    over a 6 Mbit/s, 20 ms trunk with 50-packet queues, and the two
    backlogged datagram flows from the server to clients 1 and 2. *)

val run : Exp_common.params -> row list
(** Separate vs merged, same topology and seed. *)

val print : row list -> unit
(** Print the comparison. *)
