(** Stage 1 of the spec pipeline: elaboration and static checks.

    {!elaborate} turns a {!Spec.t} into a validated intermediate graph —
    nodes, edges, flow groups and fault steps with every name resolved to
    an index — or a list of diagnostics, each carrying the source span of
    the offending combinator.  All checks run before any simulation event
    exists:

    - [dup-name] / [dup-address] / [bad-address] — name and host-address
      uniqueness (explicit [?id]s collide with auto-assigned ones too);
    - [bad-link-param] — NaN/non-positive bandwidth, negative latency,
      non-positive queue, loss that is NaN or outside \[0,1\];
    - [unknown-node] / [self-link] — link endpoint resolution;
    - [multihomed-host] — netsim hosts carry a single route;
    - [bad-stack] — a {!Spec.cm} on an undeclared name or a router, a
      host declared twice, or a non-positive mtu;
    - [router-endpoint] / [empty-group] / [bad-app] / [bad-time] — flow
      group sanity (ports, sizes, ascending layer rates, positive
      feedback batch, refill and pump periods, session window, ack
      interval and packet bound, start/stop/stagger);
    - [port-clash] / [server-conflict] — overlapping destination port
      claims (per-flow apps claim [port..port+n-1], web fetches may share
      a server only at equal object size);
    - [needs-cm] — a CM-driven source (layered, datagram or cmproto
      session) has no {!Spec.cm} (it sends through the host's CM);
    - [ack-conflict] — two cmproto groups ask one destination host's
      receiver agent for different [ack_every];
    - [unknown-target] / [bad-fault] / [fault-overlap] — fault steps
      resolve to links, pass {!Cm_dynamics.Scenario.make} validation, and
      bounded disruptions on one target never overlap;
    - [control-target] — control-plane faults ([Control_fault]) must
      target a declared {e host} (the injector lives on the host's
      receive path), never a router or a link;
    - [unreachable] — every source reaches its destination and vice versa
      (feedback path), under the hosts-don't-forward routing rule;
    - [oversubscribed] — the inelastic floor (layered sources' base
      layers) routed over each link fits its capacity. *)

open Cm_util

type diag = { d_code : string; d_span : Spec.span; d_msg : string }

val diag_str : diag -> string
(** ["[code] span: message"]. *)

type node = { n_name : string; n_kind : Spec.node_kind; n_addr : int; n_span : Spec.span }

type edge = {
  e_name : string;
  e_src : int;
  e_dst : int;
  e_bw : float;
  e_lat : Time.span;
  e_queue : int;
  e_loss : float;
  e_span : Spec.span;
}

type group = {
  g_name : string;
  g_srcs : int array;
  g_dst : int;
  g_port : int;
  g_app : Spec.app;
  g_start : Time.t;
  g_stagger : Time.span;
  g_stop : Time.t option;
  g_span : Spec.span;
}

type stack = {
  s_node : int;  (** Host node index. *)
  s_mtu : int option;
  s_scheduler : Cm.Scheduler.factory option;
  s_controller : Cm.Controller.factory option;
  s_defended : bool;
  s_span : Spec.span;
}
(** One {!Spec.cm} declaration, resolved to its host. *)

type fault_target =
  | On_link of int  (** Edge index: network faults degrade a link. *)
  | On_host of int
      (** Node index: [Control_fault] steps degrade a host's
          control-plane injector. *)

type fault = {
  f_at : Time.t;
  f_target : fault_target;
  f_action : Cm_dynamics.Scenario.action;
  f_span : Spec.span;
}

type routes
(** The IR's routing table, computed once by {!elaborate}: one forward
    BFS per router that stops at hosts, since hosts do not forward.
    {!next_hop} and {!route} read it, and so does {!Build}, which
    installs it; checker and builder therefore cannot disagree. *)

type ir = {
  ir_nodes : node array;
  ir_edges : edge array;
  ir_stacks : stack array;  (** at most one per host, node order *)
  ir_groups : group array;
  ir_faults : fault array;
  ir_out : int list array;  (** per node: out-edge indices, declaration order *)
  ir_routes : routes;
}

val elaborate : Spec.t -> (ir, diag list) result
(** Elaborate and run every static check.  [Error] is non-empty and in
    first-reported order. *)

val check : Spec.t -> diag list
(** Just the diagnostics ([] = clean). *)

val elaborate_exn : Spec.t -> ir
(** Raises [Invalid_argument] with all diagnostics rendered. *)

val next_hop : ir -> int -> dst:int -> int option
(** [next_hop ir u ~dst] is the out-edge node [u] sends [dst]-bound
    packets on, for a host [dst]: the first declared out-edge of [u]
    that starts a shortest route to [dst] through routers only.  Its
    far end is always a router or [dst] itself, never another host.
    [None] if [u = dst] or [dst] is unreachable from [u]. *)

val route : ir -> src:int -> dst:int -> int list option
(** The edge path src → dst that {!next_hop} traces; [Some []] when
    [src = dst], [None] when unreachable. *)

val summary_json : ir -> Json.t
(** Compiled-topology summary for [cm_expt spec --dump]: element counts,
    aggregate capacity, per-group and per-fault digests, and the busiest
    links by routed flow count (capped at 12 for readability). *)
