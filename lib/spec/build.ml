open Eventsim
open Netsim
module Scenario = Cm_dynamics.Scenario

(* Stage 2 of the spec pipeline: instantiate a checked IR into live
   netsim objects (declaration order, so construction is reproducible)
   and project its fault steps into a Scenario program.

   This is the library's only network constructor (sec6_phttp's pipe
   with a custom queue discipline aside).  The run rng is drawn only by
   links with loss (or by faults that later install loss, reorder or
   jitter).  test_spec holds a pipe wired by hand from Host and Link,
   and its parity tests require the same packets and counters from
   both.

   Routing is the checker's: every router installs one entry per
   destination host it can reach, read from the IR's next-hop table
   (Check.next_hop), which was computed once per IR with one BFS per
   router.  A next hop is always a router or the destination itself,
   because hosts do not forward. *)

type node_impl = Host_impl of Host.t | Router_impl of Router.t

type t = {
  engine : Engine.t;
  ir : Check.ir;
  impls : node_impl array;
  links : Link.t array;
}

let instantiate ?costs ?rng engine (ir : Check.ir) =
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
  { engine; ir; impls; links }

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

let link t name =
  let idx = ref None in
  Array.iteri
    (fun i (e : Check.edge) -> if e.Check.e_name = name then idx := Some i)
    t.ir.Check.ir_edges;
  match !idx with
  | Some i -> t.links.(i)
  | None -> invalid_arg (Printf.sprintf "Build: unknown link %S" name)

type pipe = { a : Host.t; b : Host.t; ab : Link.t; ba : Link.t }

let pipe ?costs ?rng engine spec =
  let t = instantiate ?costs ?rng engine (Check.elaborate_exn spec) in
  { a = host t "a"; b = host t "b"; ab = link t "ab"; ba = link t "ba" }

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
