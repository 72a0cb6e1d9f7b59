open Eventsim
open Netsim
module Scenario = Cm_dynamics.Scenario

(* Stage 2 of the spec pipeline: instantiate a checked IR into live
   netsim objects and host stacks (declaration order, so construction is
   reproducible) and project its fault steps into a Scenario program.

   This is the library's only network constructor (sec6_phttp's pipe
   with a custom queue discipline aside), and the only place a network's
   CMs are created: one per Spec.cm host, attached to the host, with its
   libcm made on first use.  The run rng is drawn only by
   links with loss (or by faults that later install loss or jitter).  test_spec holds a pipe and CM wired by hand from Host,
   Link and Cm, and its parity tests require the same packets and
   counters from both.

   Routing is the checker's: every router installs one entry per
   destination host it can reach, read from the IR's next-hop table
   (Check.next_hop), which was computed once per IR with one BFS per
   router.  A next hop is always a router or the destination itself,
   because hosts do not forward. *)

type node_impl = Host_impl of Host.t | Router_impl of Router.t

(* [driver] is built once, so handing it to every connection allocates
   nothing; [libcm] is made on first use, so a family that never asks
   for one creates none. *)
type stack = {
  host : Host.t;
  cm : Cm.t;
  driver : Tcp.Conn.driver option;
  mutable libcm : Libcm.t option;
}

type t = {
  engine : Engine.t;
  ir : Check.ir;
  impls : node_impl array;
  links : Link.t array;
  stacks : (int, stack) Hashtbl.t;
}

let instantiate ?costs ?rng ?canary_grant_leak engine (ir : Check.ir) =
  let impls =
    Array.map
      (fun (n : Check.node) ->
        match n.Check.n_kind with
        | Spec.Host -> Host_impl (Host.create engine ~id:n.Check.n_addr ?costs ())
        | Spec.Router -> Router_impl (Router.create ()))
      ir.Check.ir_nodes
  in
  let links =
    Array.map
      (fun (e : Check.edge) ->
        let sink =
          match impls.(e.Check.e_dst) with
          | Host_impl h -> fun pkt -> Host.deliver h pkt
          | Router_impl r -> Router.forward r
        in
        Link.create engine ~bandwidth_bps:e.Check.e_bw ~delay:e.Check.e_lat
          ~qdisc:(Queue_disc.droptail ~limit_pkts:e.Check.e_queue ())
          ~loss_rate:e.Check.e_loss ?rng ~sink ())
      ir.Check.ir_edges
  in
  let sends = Array.map Link.send links in
  (* hosts: the single out-link (multihoming was rejected statically) *)
  Array.iteri
    (fun i impl ->
      match (impl, ir.Check.ir_out.(i)) with
      | Host_impl h, ei :: _ -> Host.attach_route h sends.(ei)
      | Host_impl _, [] | Router_impl _, _ -> ())
    impls;
  (* routers: one entry per reachable destination host, read from the
     checker's own next-hop table *)
  Array.iteri
    (fun u impl ->
      match impl with
      | Router_impl r ->
          Array.iteri
            (fun dst (n : Check.node) ->
              if n.Check.n_kind = Spec.Host then
                match Check.next_hop ir u ~dst with
                | Some ei -> Router.add_route r ~dst:n.Check.n_addr sends.(ei)
                | None -> ())
            ir.Check.ir_nodes
      | Host_impl _ -> ())
    impls;
  (* stacks: one CM per declared host, node order, keyed by address *)
  let stacks = Hashtbl.create (Array.length ir.Check.ir_stacks) in
  Array.iter
    (fun (s : Check.stack) ->
      match impls.(s.Check.s_node) with
      | Host_impl host ->
          let feedback_watchdog, auditor =
            if s.Check.s_defended then (Some Cm.Macroflow.default_watchdog, Some Cm.default_auditor)
            else (None, None)
          in
          let cm =
            Cm.create engine ?mtu:s.Check.s_mtu ?scheduler:s.Check.s_scheduler
              ?controller:s.Check.s_controller ?feedback_watchdog ?auditor ?canary_grant_leak ()
          in
          Cm.attach cm host;
          Hashtbl.replace stacks (Host.id host)
            { host; cm; driver = Some (Tcp.Conn.Cm_driven cm); libcm = None }
      | Router_impl _ -> () (* rejected statically *))
    ir.Check.ir_stacks;
  { engine; ir; impls; links; stacks }

let node_index t name =
  let idx = ref None in
  Array.iteri
    (fun i (n : Check.node) -> if n.Check.n_name = name then idx := Some i)
    t.ir.Check.ir_nodes;
  match !idx with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Build: unknown node %S" name)

let host t name =
  match t.impls.(node_index t name) with
  | Host_impl h -> h
  | Router_impl _ -> invalid_arg (Printf.sprintf "Build: %S is a router, not a host" name)

let stack t name =
  let h = host t name in
  match Hashtbl.find t.stacks (Host.id h) with
  | s -> s
  | exception Not_found -> invalid_arg (Printf.sprintf "Build: host %S runs no CM" name)

let cm t name = (stack t name).cm

let libcm t name =
  let s = stack t name in
  match s.libcm with
  | Some lib -> lib
  | None ->
      let lib = Libcm.create s.host s.cm () in
      s.libcm <- Some lib;
      lib

let driver t h =
  match Hashtbl.find t.stacks (Host.id h) with s -> s.driver | exception Not_found -> None

let link t name =
  let idx = ref None in
  Array.iteri
    (fun i (e : Check.edge) -> if e.Check.e_name = name then idx := Some i)
    t.ir.Check.ir_edges;
  match !idx with
  | Some i -> t.links.(i)
  | None -> invalid_arg (Printf.sprintf "Build: unknown link %S" name)

type pipe = { a : Host.t; b : Host.t; ab : Link.t; ba : Link.t; net : t }

let pipe ?costs ?rng engine spec =
  let t = instantiate ?costs ?rng engine (Check.elaborate_exn spec) in
  { a = host t "a"; b = host t "b"; ab = link t "ab"; ba = link t "ba"; net = t }

let links_alist t =
  Array.to_list
    (Array.mapi (fun i (e : Check.edge) -> (e.Check.e_name, t.links.(i))) t.ir.Check.ir_edges)

let scenario ~name (ir : Check.ir) =
  Scenario.make ~name
    (Array.to_list
       (Array.map
          (fun (f : Check.fault) ->
            let target =
              match f.Check.f_target with
              | Check.On_link ei -> ir.Check.ir_edges.(ei).Check.e_name
              | Check.On_host ni -> ir.Check.ir_nodes.(ni).Check.n_name
            in
            { Scenario.at = f.Check.f_at; target; action = f.Check.f_action })
          ir.Check.ir_faults))

(* Hosts named as Control_fault targets, in declaration order.  Injector
   filters must be registered before any agent filter that consumes
   control traffic, so call this right after [instantiate], before
   installing Cmproto agents. *)
let control_injectors t ~classify =
  let wanted = Hashtbl.create 4 in
  Array.iter
    (fun (f : Check.fault) ->
      match f.Check.f_target with
      | Check.On_host ni -> Hashtbl.replace wanted ni ()
      | Check.On_link _ -> ())
    t.ir.Check.ir_faults;
  let acc = ref [] in
  Array.iteri
    (fun i (n : Check.node) ->
      if Hashtbl.mem wanted i then
        match t.impls.(i) with
        | Host_impl h ->
            acc :=
              (n.Check.n_name, Cm_dynamics.Control_faults.install h ~classify) :: !acc
        | Router_impl _ -> () (* rejected statically *))
    t.ir.Check.ir_nodes;
  List.rev !acc
