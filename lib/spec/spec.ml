open Cm_util

(* Stage 0 of the scenario pipeline: a typed combinator algebra over
   hosts, routers, links, host stacks, flow groups and fault schedules.  Combinators
   build plain element lists — composition is concatenation — and every
   element carries a source span (a constructor breadcrumb) so the static
   checks in [Check] can point at the combinator that introduced a bad
   element, not just at a name. *)

type span = string list

let span_str sp = String.concat "/" sp
let pp_span fmt sp = Format.pp_print_string fmt (span_str sp)

type node_kind = Host | Router

type app =
  | Bulk of { bytes : int }
  | Web_fetch of { object_bytes : int; count : int; gap : Time.span }
  | Layered of {
      layers : float array;
      packet_bytes : int;
      mode : Cm_apps.Layered.mode;
      batch : (int * Time.span) option;
    }
  | Datagram of { refill : Time.span }
  | Cmproto_session of {
      packet_bytes : int;
      window : int;
      ack_every : int;
      pump : Time.span;
      packets : int option;
    }

type elem =
  | Node of { name : string; kind : node_kind; id : int option; span : span }
  | Link of {
      name : string;
      src : string;
      dst : string;
      bw_bps : float;
      lat : Time.span;
      queue : int;
      loss : float;
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

type t = elem list

(* ---- core constructors -------------------------------------------------- *)

let node ?id name = [ Node { name; kind = Host; id; span = [ "node:" ^ name ] } ]
let router name = [ Node { name; kind = Router; id = None; span = [ "router:" ^ name ] } ]

let link ?name ?(queue = 100) ?(loss = 0.) ~bw ~lat src dst =
  let name = match name with Some n -> n | None -> src ^ "->" ^ dst in
  [ Link { name; src; dst; bw_bps = bw; lat; queue; loss; span = [ "link:" ^ name ] } ]

let duplex ?name ?rev_name ?(queue = 100) ~bw ~lat a b =
  link ?name ~queue ~bw ~lat a b @ link ?name:rev_name ~queue ~bw ~lat b a

let flows ~name ~src ~dst ?(port = 80) ~app ?(start = Time.zero) ?(stagger = 0) ?stop () =
  [ Group { name; srcs = src; dst; port; app; start; stagger; stop; span = [ "flows:" ^ name ] } ]

let faults ~target steps =
  List.map (fun (at, action) -> Fault { at; target; action; span = [ "faults:" ^ target ] }) steps

let cm ?mtu ?scheduler ?controller ?(defended = false) hosts =
  List.map
    (fun host -> Stack { host; mtu; scheduler; controller; defended; span = [ "cm:" ^ host ] })
    hosts

(* ---- app constructors --------------------------------------------------- *)

let bulk ~bytes = Bulk { bytes }
let web_fetch ~object_bytes ~count ~gap = Web_fetch { object_bytes; count; gap }

let layered ?(packet_bytes = 1000) ?(mode = Cm_apps.Layered.Alf) ?batch ~layers () =
  Layered { layers; packet_bytes; mode; batch }

let datagram ~refill = Datagram { refill }

let cmproto_session ~packet_bytes ~window ~ack_every ~pump ?packets () =
  Cmproto_session { packet_bytes; window; ack_every; pump; packets }

(* ---- composition -------------------------------------------------------- *)

let named ctx spec =
  List.map
    (function
      | Node n -> Node { n with span = ctx :: n.span }
      | Link l -> Link { l with span = ctx :: l.span }
      | Group g -> Group { g with span = ctx :: g.span }
      | Fault f -> Fault { f with span = ctx :: f.span }
      | Stack c -> Stack { c with span = ctx :: c.span })
    spec

let offset dt spec =
  List.map
    (function
      | Fault f -> Fault { f with at = Time.add f.at dt }
      | Group g ->
          Group
            { g with start = Time.add g.start dt; stop = Option.map (fun s -> Time.add s dt) g.stop }
      | (Node _ | Link _ | Stack _) as e -> e)
    spec

let par specs = List.concat specs

let seq phases =
  let _, acc =
    List.fold_left
      (fun (t0, acc) (name, dur, spec) -> (Time.add t0 dur, named name (offset t0 spec) :: acc))
      (Time.zero, []) phases
  in
  List.concat (List.rev acc)

(* ---- sugar: canned shapes ----------------------------------------------- *)

let chain ?(queue = 100) ~bw ~lat names =
  let rec pairs = function
    | a :: (b :: _ as rest) -> duplex ~queue ~bw ~lat a b @ pairs rest
    | [ _ ] | [] -> []
  in
  named "chain" (pairs names)

let star ~center ?(queue = 100) ~bw ~lat leaves =
  named ("star:" ^ center) (List.concat_map (fun leaf -> duplex ~queue ~bw ~lat center leaf) leaves)

(* The paper's Dummynet pipe: random loss on the forward (data) link
   only, and a deep reverse queue so acknowledgments are never the
   bottleneck. *)
let pipe ?(queue = 100) ?(rev_queue = 1000) ?loss ~bw ~lat () =
  named "pipe"
    (node "a" @ node "b"
    @ link ~name:"ab" ~queue ?loss ~bw ~lat "a" "b"
    @ link ~name:"ba" ~queue:rev_queue ~bw ~lat "b" "a")

(* clients ~n per edge server: one access router per server, a trunk
   between server and router, and n single-homed clients per router.
   Names follow a fixed convention so flow groups can address them:
   router "cr<i>", client "c<i>_<j>". *)

let client_name ~server ~index () = Printf.sprintf "c%d_%d" server index

let client_names ~n ~servers () =
  List.concat
    (List.init (List.length servers) (fun i ->
         List.init n (fun j -> client_name ~server:i ~index:j ())))

let clients ~n ~per ~bw ~lat ?(queue = 100) ~trunk_bw ~trunk_lat ?(trunk_queue = 100) () =
  let per_server i server =
    let rtr = Printf.sprintf "cr%d" i in
    router rtr
    @ duplex ~queue:trunk_queue ~bw:trunk_bw ~lat:trunk_lat server rtr
    @ List.concat
        (List.init n (fun j ->
             let c = client_name ~server:i ~index:j () in
             node c @ duplex ~queue ~bw ~lat c rtr))
  in
  named "clients:c" (List.concat (List.mapi per_server per))

(* A k-ary fat-tree (k even): k pods of k/2 edge and k/2 aggregation
   routers, (k/2)^2 cores, k^2/4 hosts per... k/2 hosts per edge router,
   k^3/4 hosts total.  Hosts are "h<i>" in pod-major order; routers are
   "p<pod>e<j>", "p<pod>a<j>" and "core<m>". *)

let fat_tree_host ~k:_ i = Printf.sprintf "h%d" i
let fat_tree_hosts ~k = List.init (k * k * k / 4) (fat_tree_host ~k)

let fat_tree ~k ?(host_bw = 100e6) ?(fabric_bw = 100e6) ?(lat = Time.us 10) ?(queue = 64) () =
  if k <= 0 || k mod 2 <> 0 then
    invalid_arg (Printf.sprintf "Spec.fat_tree: k must be a positive even number (got %d)" k);
  let half = k / 2 in
  let edge pod j = Printf.sprintf "p%de%d" pod j in
  let agg pod j = Printf.sprintf "p%da%d" pod j in
  let core m = Printf.sprintf "core%d" m in
  let cores = List.init (half * half) (fun m -> router (core m)) in
  let pods =
    List.init k (fun pod ->
        let routers =
          List.init half (fun j -> router (edge pod j) @ router (agg pod j))
        in
        let hosts =
          List.init half (fun j ->
              List.init half (fun i ->
                  let h = fat_tree_host ~k ((pod * half * half) + (j * half) + i) in
                  node h @ duplex ~queue ~bw:host_bw ~lat h (edge pod j)))
        in
        let edge_agg =
          List.init half (fun j ->
              List.init half (fun m -> duplex ~queue ~bw:fabric_bw ~lat (edge pod j) (agg pod m)))
        in
        let agg_core =
          List.init half (fun m ->
              List.init half (fun c ->
                  duplex ~queue ~bw:fabric_bw ~lat (agg pod m) (core ((m * half) + c))))
        in
        List.concat
          (routers @ List.concat hosts @ List.concat edge_agg @ List.concat agg_core))
  in
  named
    (Printf.sprintf "fat_tree:k=%d" k)
    (List.concat cores @ List.concat pods)
