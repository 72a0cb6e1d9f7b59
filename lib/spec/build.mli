(** Stage 2 of the spec pipeline: instantiation.

    Turns a checked {!Check.ir} into live {!Netsim} objects — hosts and
    routers in declaration order, links in declaration order with
    drop-tail queues, host default routes and router tables — plus a
    {!Cm_dynamics.Scenario} program projected from the fault steps.

    Each router gets one route per destination host it can reach, read
    from the checker's own table ({!Check.next_hop}), so the routes
    {!Check.route} reports are the paths packets take.  A next hop is
    always a router or the destination itself: hosts never forward.

    Construction order and parameters match the hand-built
    {!Netsim.Topology} builders exactly (and the [rng] is only stored by
    links, never drawn while loss is off), so a spec describing the same
    shape compiles to a byte-identical simulation. *)

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
    is handed to every link (needed only if faults later install loss or
    jitter). *)

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
