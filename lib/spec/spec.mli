(** Declarative topology/scenario algebra (stage 0 of the spec pipeline).

    A spec is a list of elements — hosts, routers, links, host stacks,
    flow groups and fault steps — built with typed combinators and composed by
    concatenation ({!par}) or time-shifted sequencing ({!seq}).  Nothing
    here touches the simulator: a spec is a plain value, elaborated and
    statically checked by {!Check} and only then instantiated into live
    {!Netsim} objects plus a {!Cm_dynamics.Scenario} program by {!Build}.

    Every element carries a {e source span}: a breadcrumb of the
    combinators that introduced it (e.g.
    ["fattree/fat_tree:k=4/link:h0->p0e0"]), reported verbatim by every
    static-check diagnostic.  Wrap sub-specs with {!named} to extend the
    breadcrumb.

    The algebra mirrors the staged-compilation idiom of frenetic's NetKAT
    compiler: a small core (node / link / stack / group / fault) plus
    sugar ({!pipe}, {!chain}, {!star}, {!clients}, {!fat_tree}) that
    elaborates to the core at construction time, so the checker and the
    builder only ever see five element forms. *)

open Cm_util

type span = string list
(** Combinator breadcrumb, outermost context first. *)

val span_str : span -> string
val pp_span : Format.formatter -> span -> unit

type node_kind = Host | Router

type app =
  | Bulk of { bytes : int }
      (** One TCP/CM transfer of [bytes] per source; the builder creates a
          per-flow receiver (ports [port], [port+1], …). *)
  | Web_fetch of { object_bytes : int; count : int; gap : Time.span }
      (** [count] sequential fetches of an [object_bytes] response from a
          shared server on [dst:port], each started [gap] after the
          previous one's start. *)
  | Layered of {
      layers : float array;
      packet_bytes : int;
      mode : Cm_apps.Layered.mode;
      batch : (int * Time.span) option;
    }
      (** A layered media source per flow (cumulative rates ascending)
          over the source host's libcm, with an echo receiver on
          [dst:port+i] that acknowledges every datagram, or with [batch
          = Some (n, d)] every [n] datagrams or [d] (Fig. 10); the
          source then waits [2d + 500 ms] before declaring loss. *)
  | Datagram of { refill : Time.span }
      (** A backlogged CC-UDP source per flow: a socket over the source
          host's CM to an echo receiver on [dst:port+i], topped up to 64
          queued 1000 B datagrams at its start and then on every tick of
          a [refill]-periodic timer (one per period, shared). *)
  | Cmproto_session of {
      packet_bytes : int;
      window : int;
      ack_every : int;
      pump : Time.span;
      packets : int option;
    }
      (** A CM-protocol session per flow to [dst:port+i] (queue limit
          [2 * window]), over one sender agent per source host and one
          receiver agent per destination host acknowledging every
          [ack_every] packets; from its start it is topped up to [window]
          queued [packet_bytes] datagrams on every tick of a
          [pump]-periodic timer (one per period, shared), [packets] in
          all ([None]: unbounded). *)

type elem =
  | Node of { name : string; kind : node_kind; id : int option; span : span }
  | Link of {
      name : string;
      src : string;
      dst : string;
      bw_bps : float;
      lat : Time.span;
      queue : int;
      loss : float;  (** Bernoulli drop probability per packet, before queueing. *)
      span : span;
    }
  | Group of {
      name : string;
      srcs : string list;
      dst : string;
      port : int;
      app : app;
      start : Time.t;
      stagger : Time.span;
      stop : Time.t option;
      span : span;
    }
  | Fault of { at : Time.t; target : string; action : Cm_dynamics.Scenario.action; span : span }
  | Stack of {
      host : string;
      mtu : int option;
      scheduler : Cm.Scheduler.factory option;
      controller : Cm.Controller.factory option;
      defended : bool;
      span : span;
    }
      (** The host's congestion manager, declared by {!cm}: {!Build}
          creates it with this [mtu], [scheduler] and [controller]
          ([None] keeps the CM's default), plus the feedback watchdog
          and the auditor when [defended], and attaches it to the
          host. *)

type t = elem list

(** {1 Core constructors} *)

val node : ?id:int -> string -> t
(** A host.  [id] overrides the auto-assigned address (declaration
    order); the duplicate-address check rejects collisions. *)

val router : string -> t
(** A store-and-forward element: has no address, forwards by destination
    host. *)

val link :
  ?name:string -> ?queue:int -> ?loss:float -> bw:float -> lat:Time.span -> string -> string -> t
(** [link ~bw ~lat src dst] is a unidirectional link (drop-tail queue of
    [queue] packets, default 100) that drops each packet independently
    with probability [loss] (default 0; the builder's [rng] draws it).
    [name] defaults to ["src->dst"]. *)

val duplex :
  ?name:string ->
  ?rev_name:string ->
  ?queue:int ->
  bw:float ->
  lat:Time.span ->
  string ->
  string ->
  t
(** Two symmetric links. *)

val flows :
  name:string ->
  src:string list ->
  dst:string ->
  ?port:int ->
  app:app ->
  ?start:Time.t ->
  ?stagger:Time.span ->
  ?stop:Time.t ->
  unit ->
  t
(** A flow group: one [app] instance per source host, targeting [dst].
    Source [i] starts at [start + i*stagger]; [stop] (when given) halts
    unbounded apps (layered, datagram and cmproto sources). *)

val faults : target:string -> (Time.t * Cm_dynamics.Scenario.action) list -> t
(** Timed fault actions on the named link. *)

val cm :
  ?mtu:int ->
  ?scheduler:Cm.Scheduler.factory ->
  ?controller:Cm.Controller.factory ->
  ?defended:bool ->
  string list ->
  t
(** A CM on each named host: the paper's CM is a module of the sending
    host that all of the host's flows share, so which hosts run one, and
    how it is configured, is part of the spec.  [mtu], [scheduler] and
    [controller] configure the CM (its defaults when omitted);
    [defended] (default [false]) adds {!Cm.Macroflow.default_watchdog}
    and {!Cm.default_auditor}.  Overlay it with {!par}; {!Build.cm},
    {!Build.libcm} and {!Build.driver} read the instances back. *)

(** {1 App constructors} *)

val bulk : bytes:int -> app
val web_fetch : object_bytes:int -> count:int -> gap:Time.span -> app
val layered :
  ?packet_bytes:int ->
  ?mode:Cm_apps.Layered.mode ->
  ?batch:int * Time.span ->
  layers:float array ->
  unit ->
  app
(** Defaults: 1000 B packets, ALF, no batching. *)

val datagram : refill:Time.span -> app

val cmproto_session :
  packet_bytes:int -> window:int -> ack_every:int -> pump:Time.span -> ?packets:int -> unit -> app

(** {1 Composition} *)

val named : string -> t -> t
(** Push a context segment onto every element's span. *)

val offset : Time.span -> t -> t
(** Shift every time-bearing element (fault times, group start/stop). *)

val par : t list -> t
(** Overlay specs (plain union; nothing is shifted). *)

val seq : (string * Time.span * t) list -> t
(** Scenario phases in sequence: each [(name, duration, spec)] is
    {!named} and {!offset} by the cumulative duration of its
    predecessors.  Topology elements are unaffected by the shift, so
    phases may freely mix links and faults. *)

(** {1 Sugar: canned shapes} *)

val chain : ?queue:int -> bw:float -> lat:Time.span -> string list -> t
(** Duplex links between consecutive names (nodes declared separately). *)

val pipe :
  ?queue:int -> ?rev_queue:int -> ?loss:float -> bw:float -> lat:Time.span -> unit -> t
(** The two-host Dummynet pipe every single-path experiment runs on:
    hosts ["a"] (address 0) and ["b"] (address 1), forward link ["ab"]
    then reverse link ["ba"], both [bw]/[lat].  [queue] sizes the
    forward drop-tail queue (default 100), [rev_queue] the reverse one
    (default 1000); [loss] applies to ["ab"] only.  {!Build.pipe}
    compiles it. *)

val star : center:string -> ?queue:int -> bw:float -> lat:Time.span -> string list -> t
(** Duplex links from [center] to every leaf. *)

val clients :
  n:int ->
  per:string list ->
  bw:float ->
  lat:Time.span ->
  ?queue:int ->
  trunk_bw:float ->
  trunk_lat:Time.span ->
  ?trunk_queue:int ->
  unit ->
  t
(** [n] single-homed clients per edge server: for server [i] in [per], an
    access router ["cr<i>"], a trunk (server ↔ router) and [n] clients
    ["c<i>_<j>"] with [bw]/[lat] access links. *)

val client_name : server:int -> index:int -> unit -> string
val client_names : n:int -> servers:string list -> unit -> string list
(** The names {!clients} generates, for use in flow groups. *)

val fat_tree :
  k:int -> ?host_bw:float -> ?fabric_bw:float -> ?lat:Time.span -> ?queue:int -> unit -> t
(** A k-ary fat-tree (k even): [k] pods of [k/2] edge + [k/2] aggregation
    routers, [(k/2)²] cores, [k³/4] hosts ["h0"…]; every adjacency is a
    duplex link.  Raises [Invalid_argument] for odd or non-positive [k]. *)

val fat_tree_hosts : k:int -> string list
(** Host names of the [k]-ary fat-tree, pod-major. *)
