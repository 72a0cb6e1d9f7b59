(** Stage 2 of the spec pipeline: instantiation.

    Turns a checked {!Check.ir} into live {!Netsim} objects — hosts and
    routers in declaration order, links in declaration order with
    drop-tail queues and Bernoulli loss, host default routes and router
    tables — and host stacks: a {!Cm} per {!Spec.cm} host, plus a
    {!Cm_dynamics.Scenario} program projected from the fault steps.  It
    is the library's only network constructor, and the only place a
    library network's CMs and libcms are created: every experiment
    family (but phttp, whose queue discipline the DSL cannot express),
    example and test network is a {!Spec.t} compiled here, and families
    read their CMs back with {!cm}, {!libcm} and {!driver}.

    Each router gets one route per destination host it can reach, read
    from the checker's own table ({!Check.next_hop}), so the routes
    {!Check.route} reports are the paths packets take.  A next hop is
    always a router or the destination itself: hosts never forward.

    Construction follows declaration order, and the [rng] is drawn only
    by links with loss (or by faults that install loss or jitter), so a spec compiles to a reproducible simulation. *)

open Eventsim
open Netsim

type node_impl = Host_impl of Host.t | Router_impl of Router.t

type stack
(** One host's CM, its TCP driver and its (lazily made) libcm. *)

type t = {
  engine : Engine.t;
  ir : Check.ir;
  impls : node_impl array;  (** per node index *)
  links : Link.t array;  (** per edge index *)
  stacks : (int, stack) Hashtbl.t;  (** by host address *)
}

val instantiate :
  ?costs:Costs.t -> ?rng:Cm_util.Rng.t -> ?canary_grant_leak:bool -> Engine.t -> Check.ir -> t
(** Create every host, router and link, install all routes, then create
    each declared CM in node order and {!Cm.attach} it to its host.
    [rng] is handed to every link (needed by links with loss, and by
    faults that later install loss or jitter).  [canary_grant_leak] is
    passed to every CM ({!Cm.create}; the soak's mutation canary). *)

type pipe = {
  a : Host.t;  (** Host ["a"], address 0 (the sender side). *)
  b : Host.t;  (** Host ["b"], address 1. *)
  ab : Link.t;  (** Forward link a → b. *)
  ba : Link.t;  (** Reverse link b → a. *)
  net : t;  (** The whole build, for {!cm}, {!libcm} and {!driver}. *)
}

val pipe : ?costs:Costs.t -> ?rng:Cm_util.Rng.t -> Engine.t -> Spec.t -> pipe
(** Elaborate (raising [Invalid_argument] on any diagnostic) and
    instantiate a spec that declares {!Spec.pipe}'s names, and return
    its two hosts and two links.  [rng] is required when the spec has
    loss. *)

val host : t -> string -> Host.t
(** Look up a host by spec name; raises [Invalid_argument] for routers
    or unknown names. *)

val cm : t -> string -> Cm.t
(** The CM {!Spec.cm} declared on the named host; raises
    [Invalid_argument] if the host runs none. *)

val libcm : t -> string -> Libcm.t
(** The named host's libcm over its CM, created on the first call and
    the same value on every later one: one application process per
    host (a family modelling several processes on a host makes the
    others' libcms itself).  Raises [Invalid_argument] if the host runs
    no CM. *)

val driver : t -> Host.t -> Tcp.Conn.driver option
(** [Some (Cm_driven cm)] on a host with a CM, [None] on one without
    (stock TCP) — {!Launch.run}'s default [?driver_for].  A hash lookup
    by address that allocates nothing. *)

val link : t -> string -> Link.t
(** Look up a link by spec name. *)

val links_alist : t -> (string * Link.t) list
(** All links with their spec names, declaration order — the binding
    {!Cm_dynamics.Scenario.compile} consumes. *)

val scenario : name:string -> Check.ir -> Cm_dynamics.Scenario.t
(** The fault schedule as a Scenario program (steps in declaration
    order, network faults targeted by link name, control faults by host
    name). *)

val control_injectors :
  t -> classify:(Packet.t -> bool) -> (string * Cm_dynamics.Control_faults.t) list
(** Install a {!Cm_dynamics.Control_faults} injector on every host some
    [Control_fault] step targets (declaration order) and return the
    name binding {!Cm_dynamics.Scenario.compile}'s [?controls] consumes.
    Call right after {!instantiate} — the injector's receive filter must
    be registered {e before} any agent filter that consumes control
    traffic. *)
