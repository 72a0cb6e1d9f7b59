open Cm_util
module Scenario = Cm_dynamics.Scenario

(* Stage 1 of the spec pipeline: elaborate the combinator algebra into a
   validated intermediate graph, running every static check before a
   single simulation event exists.  Each diagnostic carries the source
   span of the element that caused it. *)

type diag = { d_code : string; d_span : Spec.span; d_msg : string }

let diag_str d = Printf.sprintf "[%s] %s: %s" d.d_code (Spec.span_str d.d_span) d.d_msg

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
  s_node : int;
  s_mtu : int option;
  s_scheduler : Cm.Scheduler.factory option;
  s_controller : Cm.Controller.factory option;
  s_defended : bool;
  s_span : Spec.span;
}

type fault_target = On_link of int | On_host of int

type fault = {
  f_at : Time.t;
  f_target : fault_target;
  f_action : Scenario.action;
  f_span : Spec.span;
}

(* Routes are computed once per IR, by one forward BFS per router.  Only
   routers forward: the BFS expands routers and stops at hosts, so no
   route ever passes through a host. *)
type routes = {
  rt_dist : int array array;
      (* per router: hop distance to every node (max_int = unreachable);
         [||] for hosts *)
  rt_hop : int array array;  (* per router: out-edge toward every host (-1 = none) *)
}

type ir = {
  ir_nodes : node array;
  ir_edges : edge array;
  ir_stacks : stack array;  (** node order *)
  ir_groups : group array;
  ir_faults : fault array;
  ir_out : int list array;  (** per node: out-edge indices, declaration order *)
  ir_routes : routes;
}

let is_host ir i = ir.ir_nodes.(i).n_kind = Spec.Host
let node_name ir i = ir.ir_nodes.(i).n_name
let edge_name ir i = ir.ir_edges.(i).e_name

let fault_target_name ir = function
  | On_link ei -> edge_name ir ei
  | On_host ni -> node_name ir ni

let fault_target_str ir = function
  | On_link ei -> Printf.sprintf "link %S" (edge_name ir ei)
  | On_host ni -> Printf.sprintf "host %S's control plane" (node_name ir ni)

(* ---- routing ------------------------------------------------------------ *)

let compute_routes nodes edges out =
  let n = Array.length nodes in
  let is_router i = nodes.(i).n_kind = Spec.Router in
  let hosts = Array.of_list (List.filter (fun i -> not (is_router i)) (List.init n Fun.id)) in
  let q = Queue.create () in
  let bfs u =
    let dist = Array.make n max_int in
    dist.(u) <- 0;
    Queue.push u q;
    while not (Queue.is_empty q) do
      let v = Queue.pop q in
      if is_router v then
        List.iter
          (fun ei ->
            let w = edges.(ei).e_dst in
            if dist.(w) = max_int then begin
              dist.(w) <- dist.(v) + 1;
              Queue.push w q
            end)
          out.(v)
    done;
    dist
  in
  let rt_dist = Array.init n (fun u -> if is_router u then bfs u else [||]) in
  (* [u]'s next hop toward host [d] is its first declared out-edge that
     starts a shortest route: the edge to [d] itself, or an edge to a
     router one hop closer.  Declaration order is the deterministic
     tie-break (no ECMP). *)
  let table u =
    let du = rt_dist.(u) and hop = Array.make n (-1) in
    List.iter
      (fun ei ->
        let v = edges.(ei).e_dst in
        if not (is_router v) then (if hop.(v) < 0 then hop.(v) <- ei)
        else
          let dv = rt_dist.(v) in
          Array.iter
            (fun d -> if hop.(d) < 0 && du.(d) <> max_int && dv.(d) = du.(d) - 1 then hop.(d) <- ei)
            hosts)
      out.(u);
    hop
  in
  { rt_dist; rt_hop = Array.init n (fun u -> if is_router u then table u else [||]) }

let next_hop ir u ~dst =
  let rt = ir.ir_routes in
  if u = dst then None
  else if not (is_host ir u) then (match rt.rt_hop.(u).(dst) with -1 -> None | ei -> Some ei)
  else
    (* a host sends on its first out-edge that starts a shortest route *)
    let cost ei =
      let v = ir.ir_edges.(ei).e_dst in
      if v = dst then 0 else if is_host ir v then max_int else rt.rt_dist.(v).(dst)
    in
    fst
      (List.fold_left
         (fun (best, c) ei ->
           let c' = cost ei in
           if c' < c then (Some ei, c') else (best, c))
         (None, max_int) ir.ir_out.(u))

let route ir ~src ~dst =
  let rec walk u acc =
    if u = dst then Some (List.rev acc)
    else
      match next_hop ir u ~dst with
      | None -> None
      | Some ei -> walk ir.ir_edges.(ei).e_dst (ei :: acc)
  in
  walk src []

(* ---- fault windows ------------------------------------------------------ *)

(* The window of a bounded disruption (mirrors Scenario.fault_window's
   per-action clearance rule); persistent renegotiations have none. *)
let step_window at = function
  | Scenario.Outage d -> Some (at, Time.add at d)
  | Scenario.Flap { down; up; cycles } -> Some (at, Time.add at (((down + up) * cycles) - up))
  | Scenario.Loss_burst { duration; _ } -> Some (at, Time.add at duration)
  | Scenario.Delay_spike { duration; _ } -> Some (at, Time.add at duration)
  | Scenario.Control_fault { duration; _ } -> Some (at, Time.add at duration)
  | Scenario.Set_bandwidth _ | Scenario.Ramp_bandwidth _ | Scenario.Set_loss _ -> None

(* ---- app parameters ----------------------------------------------------- *)

(* The rate an app insists on regardless of congestion feedback — what the
   oversubscription check sums per link.  Elastic apps (TCP transfers,
   web fetches) adapt to zero, layered sources never drop below their
   base layer. *)
let app_floor_bps = function
  | Spec.Bulk _ | Spec.Web_fetch _ | Spec.Datagram _ | Spec.Cmproto_session _ -> 0.
  | Spec.Layered { layers; _ } -> if Array.length layers = 0 then 0. else layers.(0)

(* Ports an app claims on the destination: shared server vs one per flow. *)
let port_range ~port ~nsrcs = function
  | Spec.Web_fetch _ -> (port, port)
  | Spec.Bulk _ | Spec.Layered _ | Spec.Datagram _ | Spec.Cmproto_session _ ->
      (port, port + Int.max 1 nsrcs - 1)

(* The CM-driven app classes, named for diagnostics: their sources send
   through the source host's CM, so each one needs a Spec.cm. *)
let cm_driven = function
  | Spec.Layered _ -> Some "layered"
  | Spec.Datagram _ -> Some "datagram"
  | Spec.Cmproto_session _ -> Some "cmproto"
  | Spec.Bulk _ | Spec.Web_fetch _ -> None

(* ---- elaboration -------------------------------------------------------- *)

let elaborate spec =
  let diags = ref [] in
  let err code span fmt =
    Printf.ksprintf (fun msg -> diags := { d_code = code; d_span = span; d_msg = msg } :: !diags) fmt
  in
  (* 1. nodes: names unique across hosts and routers; addresses unique *)
  let nodes = ref [] and n_count = ref 0 in
  let node_idx = Hashtbl.create 64 in
  let next_auto = ref 0 in
  List.iter
    (function
      | Spec.Node { name; kind; id; span } ->
          if Hashtbl.mem node_idx name then err "dup-name" span "node %S declared twice" name
          else begin
            let addr =
              match (kind, id) with
              | Spec.Router, Some _ ->
                  err "bad-address" span "router %S cannot carry a host address" name;
                  -1
              | Spec.Router, None -> -1
              | Spec.Host, Some a ->
                  if a < 0 then err "bad-address" span "host %S: negative address %d" name a;
                  a
              | Spec.Host, None ->
                  let a = !next_auto in
                  incr next_auto;
                  a
            in
            (match (kind, id) with
            | Spec.Host, Some a when a >= !next_auto -> next_auto := a + 1
            | _ -> ());
            Hashtbl.replace node_idx name !n_count;
            nodes := { n_name = name; n_kind = kind; n_addr = addr; n_span = span } :: !nodes;
            incr n_count
          end
      | Spec.Link _ | Spec.Stack _ | Spec.Group _ | Spec.Fault _ -> ())
    spec;
  let nodes = Array.of_list (List.rev !nodes) in
  let addr_seen = Hashtbl.create 64 in
  Array.iter
    (fun n ->
      if n.n_kind = Spec.Host then begin
        (match Hashtbl.find_opt addr_seen n.n_addr with
        | Some other ->
            err "dup-address" n.n_span "hosts %S and %S share address %d" other n.n_name n.n_addr
        | None -> ());
        Hashtbl.replace addr_seen n.n_addr n.n_name
      end)
    nodes;
  let resolve span what name =
    match Hashtbl.find_opt node_idx name with
    | Some i -> Some i
    | None ->
        err "unknown-node" span "%s references undeclared node %S" what name;
        None
  in
  (* 2. links *)
  let edges = ref [] and e_count = ref 0 in
  let edge_idx = Hashtbl.create 64 in
  List.iter
    (function
      | Spec.Link { name; src; dst; bw_bps; lat; queue; loss; span } ->
          if Hashtbl.mem edge_idx name then err "dup-name" span "link %S declared twice" name;
          if Float.is_nan bw_bps || bw_bps <= 0. then
            err "bad-link-param" span "bandwidth must be positive (got %s bps)"
              (Json.float_str bw_bps);
          if lat < 0 then err "bad-link-param" span "negative latency";
          if queue <= 0 then err "bad-link-param" span "queue must hold at least one packet";
          if Float.is_nan loss || loss < 0. || loss > 1. then
            err "bad-link-param" span "loss must be a probability in [0,1] (got %s)"
              (Json.float_str loss);
          if src = dst then err "self-link" span "link %S connects %S to itself" name src;
          (match (resolve span ("link " ^ name) src, resolve span ("link " ^ name) dst) with
          | Some s, Some d when src <> dst ->
              Hashtbl.replace edge_idx name !e_count;
              edges :=
                { e_name = name; e_src = s; e_dst = d; e_bw = bw_bps; e_lat = lat;
                  e_queue = queue; e_loss = loss; e_span = span }
                :: !edges;
              incr e_count
          | _ -> ())
      | Spec.Node _ | Spec.Stack _ | Spec.Group _ | Spec.Fault _ -> ())
    spec;
  let edges = Array.of_list (List.rev !edges) in
  let out = Array.make (Int.max 1 (Array.length nodes)) [] in
  Array.iteri (fun ei e -> out.(e.e_src) <- ei :: out.(e.e_src)) edges;
  Array.iteri (fun i l -> out.(i) <- List.rev l) out;
  (* 3. hosts are single-homed: at most one outgoing link *)
  Array.iteri
    (fun i n ->
      if n.n_kind = Spec.Host && List.length out.(i) > 1 then
        err "multihomed-host" n.n_span
          "host %S has %d outgoing links (netsim hosts have one route); make it a router or \
           remove a link"
          n.n_name (List.length out.(i)))
    nodes;
  (* 4. host stacks: at most one CM per declared host *)
  let stack_of = Array.make (Array.length nodes) None in
  List.iter
    (function
      | Spec.Stack { host; mtu; scheduler; controller; defended; span } -> (
          (match mtu with
          | Some m when m <= 0 ->
              err "bad-stack" span "CM on %S: mtu must be positive (got %d)" host m
          | _ -> ());
          match Hashtbl.find_opt node_idx host with
          | None -> err "bad-stack" span "CM on undeclared host %S" host
          | Some i when nodes.(i).n_kind = Spec.Router ->
              err "bad-stack" span "CM on router %S; a CM lives on a sending host" host
          | Some i when Option.is_some stack_of.(i) ->
              err "bad-stack" span "host %S declares two CMs" host
          | Some i ->
              stack_of.(i) <-
                Some
                  { s_node = i; s_mtu = mtu; s_scheduler = scheduler; s_controller = controller;
                    s_defended = defended; s_span = span })
      | Spec.Node _ | Spec.Link _ | Spec.Group _ | Spec.Fault _ -> ())
    spec;
  let stacks = Array.of_list (List.filter_map Fun.id (Array.to_list stack_of)) in
  (* 5. flow groups *)
  let groups = ref [] in
  let group_seen = Hashtbl.create 16 in
  List.iter
    (function
      | Spec.Group { name; srcs; dst; port; app; start; stagger; stop; span } ->
          if Hashtbl.mem group_seen name then err "dup-name" span "flow group %S declared twice" name;
          Hashtbl.replace group_seen name ();
          if srcs = [] then err "empty-group" span "flow group %S has no sources" name;
          if port <= 0 then err "bad-app" span "port must be positive (got %d)" port;
          if start < 0 then err "bad-time" span "negative start time";
          if stagger < 0 then err "bad-time" span "negative stagger";
          (match stop with
          | Some s when s <= start -> err "bad-time" span "stop must come after start"
          | _ -> ());
          (match app with
          | Spec.Bulk { bytes } ->
              if bytes <= 0 then err "bad-app" span "bulk transfer needs positive bytes"
          | Spec.Web_fetch { object_bytes; count; gap } ->
              if object_bytes <= 0 then err "bad-app" span "fetch needs a positive object size";
              if count <= 0 then err "bad-app" span "fetch count must be positive";
              if gap < 0 then err "bad-app" span "negative fetch gap"
          | Spec.Layered { layers; packet_bytes; batch; _ } ->
              if packet_bytes <= 0 then err "bad-app" span "packet_bytes must be positive";
              if Array.length layers = 0 then err "bad-app" span "layered source needs layers";
              Array.iteri
                (fun i r ->
                  if Float.is_nan r || r <= 0. then
                    err "bad-app" span "layer %d rate must be positive" i
                  else if i > 0 && r <= layers.(i - 1) then
                    err "bad-app" span "layer rates must be strictly ascending (layer %d)" i)
                layers;
              (match batch with
              | Some (n, d) when n <= 0 || d <= 0 ->
                  err "bad-app" span "feedback batch needs a positive count and interval"
              | _ -> ())
          | Spec.Datagram { refill } ->
              if refill <= 0 then err "bad-app" span "refill period must be positive"
          | Spec.Cmproto_session { packet_bytes; window; ack_every; pump; packets } ->
              List.iter
                (fun (what, v) -> if v <= 0 then err "bad-app" span "%s must be positive" what)
                [
                  ("packet_bytes", packet_bytes);
                  ("window", window);
                  ("ack_every", ack_every);
                  ("pump period", pump);
                  ("packet bound", Option.value packets ~default:1);
                ]);
          let resolve_host what n =
            match resolve span (Printf.sprintf "flow group %S %s" name what) n with
            | Some i when nodes.(i).n_kind = Spec.Router ->
                err "router-endpoint" span "flow group %S uses router %S as %s" name n what;
                None
            | r -> r
          in
          let dsti = resolve_host "destination" dst in
          let srcis = List.filter_map (resolve_host "source") srcs in
          (match dsti with
          | Some d when List.length srcis = List.length srcs ->
              groups :=
                { g_name = name; g_srcs = Array.of_list srcis; g_dst = d; g_port = port;
                  g_app = app; g_start = start; g_stagger = stagger; g_stop = stop; g_span = span }
                :: !groups
          | _ -> ())
      | Spec.Node _ | Spec.Link _ | Spec.Stack _ | Spec.Fault _ -> ())
    spec;
  let groups = Array.of_list (List.rev !groups) in
  (* 6. CM-driven sources send through their host's CM, so each runs one *)
  Array.iter
    (fun g ->
      match cm_driven g.g_app with
      | Some what ->
          Array.iter
            (fun s ->
              if Option.is_none stack_of.(s) then
                err "needs-cm" g.g_span "flow group %S: %s source %S runs no CM (add Spec.cm [%S])"
                  g.g_name what nodes.(s).n_name nodes.(s).n_name)
            g.g_srcs
      | None -> ())
    groups;
  (* 7. destination port claims must not clash, nor cmproto ack intervals *)
  let claims = Hashtbl.create 16 in
  Array.iter
    (fun g ->
      let lo, hi = port_range ~port:g.g_port ~nsrcs:(Array.length g.g_srcs) g.g_app in
      let prev = try Hashtbl.find claims g.g_dst with Not_found -> [] in
      List.iter
        (fun (lo', hi', g') ->
          (* a host runs one cmproto receiver agent: one ack interval *)
          (match (g.g_app, g'.g_app) with
          | Spec.Cmproto_session { ack_every = a; _ }, Spec.Cmproto_session { ack_every = b; _ }
            when a <> b ->
              err "ack-conflict" g.g_span
                "flow groups %S and %S ask %S's cmproto receiver agent to acknowledge every %d \
                 and every %d packets"
                g'.g_name g.g_name nodes.(g.g_dst).n_name b a
          | _ -> ());
          if lo <= hi' && lo' <= hi then
            match (g.g_app, g'.g_app) with
            | Spec.Web_fetch { object_bytes = a; _ }, Spec.Web_fetch { object_bytes = b; _ }
              when g.g_port = g'.g_port && a = b ->
                () (* same shared server: fine *)
            | Spec.Web_fetch _, Spec.Web_fetch _ when g.g_port = g'.g_port ->
                err "server-conflict" g.g_span
                  "flow groups %S and %S share server %s:%d but serve different object sizes"
                  g'.g_name g.g_name nodes.(g.g_dst).n_name g.g_port
            | _ ->
                err "port-clash" g.g_span
                  "flow groups %S and %S claim overlapping ports [%d,%d] and [%d,%d] on %S"
                  g'.g_name g.g_name lo' hi' lo hi nodes.(g.g_dst).n_name)
        prev;
      Hashtbl.replace claims g.g_dst ((lo, hi, g) :: prev))
    groups;
  (* 8. faults *)
  let faults = ref [] in
  List.iter
    (function
      | Spec.Fault { at; target; action; span } ->
          if at < 0 then err "bad-time" span "negative fault time";
          (try ignore (Scenario.make ~name:"check" [ { Scenario.at = Int.max at 0; target; action } ])
           with Invalid_argument m -> err "bad-fault" span "%s" m);
          (match action with
          | Scenario.Control_fault _ -> (
              (* control faults degrade a *host*'s feedback plane, not a link *)
              match Hashtbl.find_opt node_idx target with
              | Some ni when nodes.(ni).n_kind = Spec.Host ->
                  faults :=
                    { f_at = at; f_target = On_host ni; f_action = action; f_span = span }
                    :: !faults
              | Some _ ->
                  err "control-target" span
                    "control fault targets router %S; control-plane injectors live on hosts"
                    target
              | None ->
                  err "control-target" span "control fault targets undeclared host %S" target)
          | _ -> (
              match Hashtbl.find_opt edge_idx target with
              | Some ei ->
                  faults :=
                    { f_at = at; f_target = On_link ei; f_action = action; f_span = span }
                    :: !faults
              | None -> err "unknown-target" span "fault targets undeclared link %S" target))
      | Spec.Node _ | Spec.Link _ | Spec.Stack _ | Spec.Group _ -> ())
    spec;
  let faults = Array.of_list (List.rev !faults) in
  let ir =
    { ir_nodes = nodes; ir_edges = edges; ir_stacks = stacks; ir_groups = groups;
      ir_faults = faults; ir_out = out; ir_routes = compute_routes nodes edges out }
  in
  (* 9. overlapping bounded disruptions on the same link are ambiguous *)
  let by_target = Hashtbl.create 8 in
  Array.iter
    (fun f ->
      match step_window f.f_at f.f_action with
      | Some w ->
          let prev = try Hashtbl.find by_target f.f_target with Not_found -> [] in
          Hashtbl.replace by_target f.f_target ((w, f) :: prev)
      | None -> ())
    faults;
  Hashtbl.iter
    (fun target windows ->
      let sorted = List.sort (fun ((s, _), _) ((s', _), _) -> Time.compare s s') (List.rev windows) in
      let rec scan = function
        | ((_, e1), f1) :: (((s2, _), f2) :: _ as rest) ->
            if s2 < e1 then
              err "fault-overlap" f2.f_span
                "bounded disruptions overlap on %s (previous one from %s clears at t=%ss, \
                 this one starts at t=%ss)"
                (fault_target_str ir target) (Spec.span_str f1.f_span)
                (Json.float_str (Time.to_float_s e1))
                (Json.float_str (Time.to_float_s s2));
            scan rest
        | [ _ ] | [] -> ()
      in
      scan sorted)
    by_target;
  (* 10. reachability: every source must reach its destination, and the
     destination must reach every source (the feedback path) *)
  Array.iter
    (fun g ->
      Array.iter
        (fun s ->
          if route ir ~src:s ~dst:g.g_dst = None then
            err "unreachable" g.g_span "flow group %S: source %S cannot reach %S" g.g_name
              (node_name ir s) (node_name ir g.g_dst);
          if route ir ~src:g.g_dst ~dst:s = None then
            err "unreachable" g.g_span "flow group %S: %S cannot reach source %S (no feedback path)"
              g.g_name (node_name ir g.g_dst) (node_name ir s))
        g.g_srcs)
    groups;
  (* 11. capacity sanity: the inelastic floor routed over each link must fit *)
  let floor_demand = Array.make (Int.max 1 (Array.length edges)) 0. in
  Array.iter
    (fun g ->
      let f = app_floor_bps g.g_app in
      if f > 0. then
        Array.iter
          (fun s ->
            match route ir ~src:s ~dst:g.g_dst with
            | Some path -> List.iter (fun ei -> floor_demand.(ei) <- floor_demand.(ei) +. f) path
            | None -> ())
          g.g_srcs)
    groups;
  Array.iteri
    (fun ei e ->
      if floor_demand.(ei) > e.e_bw then
        err "oversubscribed" e.e_span
          "link %S carries an inelastic floor of %s bps against %s bps capacity; lower the base \
           layer rates or raise the link"
          e.e_name (Json.float_str floor_demand.(ei)) (Json.float_str e.e_bw))
    edges;
  match List.rev !diags with [] -> Ok ir | ds -> Error ds

let check spec = match elaborate spec with Ok _ -> [] | Error ds -> ds

let elaborate_exn spec =
  match elaborate spec with
  | Ok ir -> ir
  | Error ds ->
      invalid_arg
        ("Spec check failed:\n  " ^ String.concat "\n  " (List.map diag_str ds))

(* ---- compiled-topology summary (cm_expt spec --dump) -------------------- *)

let elastic_counts ir =
  let counts = Array.make (Int.max 1 (Array.length ir.ir_edges)) 0 in
  Array.iter
    (fun g ->
      Array.iter
        (fun s ->
          match route ir ~src:s ~dst:g.g_dst with
          | Some path -> List.iter (fun ei -> counts.(ei) <- counts.(ei) + 1) path
          | None -> ())
        g.g_srcs)
    ir.ir_groups;
  counts

let summary_json ir =
  let open Json in
  let hosts = Array.to_list ir.ir_nodes |> List.filter (fun n -> n.n_kind = Spec.Host) in
  let routers = Array.length ir.ir_nodes - List.length hosts in
  let total_bw = Array.fold_left (fun acc e -> acc +. e.e_bw) 0. ir.ir_edges in
  let counts = elastic_counts ir in
  (* busiest links by forward flow count; capped so huge client fan-outs
     stay readable *)
  let busiest =
    Array.to_list (Array.mapi (fun ei e -> (counts.(ei), e)) ir.ir_edges)
    |> List.filter (fun (c, _) -> c > 0)
    |> List.sort (fun (c, e) (c', e') ->
           match compare c' c with 0 -> compare e.e_name e'.e_name | o -> o)
    |> fun l -> List.filteri (fun i _ -> i < 12) l
  in
  let secs t = Json.float_str (Time.to_float_s t) in
  let group_json g =
    Obj
      [
        ("name", Str g.g_name);
        ("sources", Int (Array.length g.g_srcs));
        ("dst", Str (node_name ir g.g_dst));
        ("port", Int g.g_port);
        ( "app",
          Str
            (match g.g_app with
            | Spec.Bulk { bytes } -> Printf.sprintf "bulk:%dB" bytes
            | Spec.Web_fetch { object_bytes; count; _ } ->
                Printf.sprintf "web_fetch:%dB x%d" object_bytes count
            | Spec.Layered { layers; batch; _ } ->
                Printf.sprintf "layered:%d layers <=%s bps%s" (Array.length layers)
                  (Json.float_str layers.(Array.length layers - 1))
                  (match batch with
                  | Some (n, d) -> Printf.sprintf " batch=%d/%ss" n (secs d)
                  | None -> "")
            | Spec.Datagram { refill } ->
                Printf.sprintf "datagram:1000B x64 refill=%ss" (secs refill)
            | Spec.Cmproto_session { packet_bytes; window; ack_every; pump; packets } ->
                Printf.sprintf "cmproto:%dB window=%d ack_every=%d pump=%ss%s" packet_bytes window
                  ack_every (secs pump)
                  (match packets with Some n -> Printf.sprintf " x%d" n | None -> "")) );
        ("start_s", Float (Time.to_float_s g.g_start));
        ("stagger_s", Float (Time.to_float_s g.g_stagger));
        ("stop_s", match g.g_stop with Some s -> Float (Time.to_float_s s) | None -> Null);
      ]
  in
  let fault_json f =
    let window = step_window f.f_at f.f_action in
    Obj
      [
        ("target", Str (fault_target_name ir f.f_target));
        ("at_s", Float (Time.to_float_s f.f_at));
        ( "kind",
          Str
            (match f.f_action with
            | Scenario.Set_bandwidth _ -> "set_bandwidth"
            | Scenario.Ramp_bandwidth _ -> "ramp_bandwidth"
            | Scenario.Set_loss _ -> "set_loss"
            | Scenario.Loss_burst _ -> "loss_burst"
            | Scenario.Outage _ -> "outage"
            | Scenario.Flap _ -> "flap"
            | Scenario.Delay_spike _ -> "delay_spike"
            | Scenario.Control_fault _ -> "control_fault") );
        ("clears_s", match window with Some (_, e) -> Float (Time.to_float_s e) | None -> Null);
      ]
  in
  Obj
    [
      ("hosts", Int (List.length hosts));
      ("routers", Int routers);
      ("links", Int (Array.length ir.ir_edges));
      ("flow_groups", Int (Array.length ir.ir_groups));
      ("flows", Int (Array.fold_left (fun acc g -> acc + Array.length g.g_srcs) 0 ir.ir_groups));
      ("faults", Int (Array.length ir.ir_faults));
      ("total_link_bps", Float total_bw);
      ( "busiest_links",
        List
          (List.map
             (fun (c, e) ->
               Obj
                 [
                   ("link", Str e.e_name);
                   ("flows", Int c);
                   ("bandwidth_bps", Float e.e_bw);
                   ( "oversubscription",
                     Float (float_of_int c) );
                 ])
             busiest) );
      ("groups", List (Array.to_list (Array.map group_json ir.ir_groups)));
      ("fault_steps", List (Array.to_list (Array.map fault_json ir.ir_faults)));
    ]
