(** Stage 2 of the spec pipeline: instantiation.

    Turns a checked {!Check.ir} into live {!Netsim} objects — hosts and
    routers in declaration order, links in declaration order with
    drop-tail queues and Bernoulli loss, host default routes and router
    tables — plus a {!Cm_dynamics.Scenario} program projected from the
    fault steps.  It is the library's only network constructor: every
    experiment family (but phttp, whose queue discipline the DSL cannot
    express), example and test network is a {!Spec.t} compiled here.

    Each router gets one route per destination host it can reach, read
    from the checker's own table ({!Check.next_hop}), so the routes
    {!Check.route} reports are the paths packets take.  A next hop is
    always a router or the destination itself: hosts never forward.

    Construction follows declaration order, and the [rng] is drawn only
    by links with loss (or by faults that install loss, reorder or
    jitter), so a spec compiles to a reproducible simulation. *)

open Eventsim
open Netsim

type node_impl = Host_impl of Host.t | Router_impl of Router.t

type t = {
  engine : Engine.t;
  ir : Check.ir;
  impls : node_impl array;  (** per node index *)
  links : Link.t array;  (** per edge index *)
}

val instantiate : ?costs:Costs.t -> ?rng:Cm_util.Rng.t -> Engine.t -> Check.ir -> t
(** Create every host, router and link, and install all routes.  [rng]
    is handed to every link (needed by links with loss, and by faults
    that later install loss or jitter). *)

type pipe = {
  a : Host.t;  (** Host ["a"], address 0 (the sender side). *)
  b : Host.t;  (** Host ["b"], address 1. *)
  ab : Link.t;  (** Forward link a → b. *)
  ba : Link.t;  (** Reverse link b → a. *)
}

val pipe : ?costs:Costs.t -> ?rng:Cm_util.Rng.t -> Engine.t -> Spec.t -> pipe
(** Elaborate (raising [Invalid_argument] on any diagnostic) and
    instantiate a spec that declares {!Spec.pipe}'s names, and return
    its two hosts and two links.  [rng] is required when the spec has
    loss. *)

val host : t -> string -> Host.t
(** Look up a host by spec name; raises [Invalid_argument] for routers
    or unknown names. *)

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
