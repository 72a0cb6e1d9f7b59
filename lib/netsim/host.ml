open Eventsim

type handler = Packet.t -> unit

(* [cpu] and [costs] are fields 0 and 1: their accessors are loads *)
type t = {
  cpu : Cpu.t;
  costs : Costs.t;
  id : int;
  engine : Engine.t;
  mutable route : (Packet.t -> unit) option;
  mutable tx_hooks : (Packet.t -> unit) list;
  mutable rx_filters : (Packet.t -> Packet.t option) list;
  listeners : handler Cm_util.Int_table.t; (* keyed by [listener_key] *)
  connected : handler Addr.Flow_table.t;
  mutable next_port : int;
  mutable unmatched : int;
  mutable tx_packets : int;
  mutable tx_bytes : int;
}

let create engine ~id ?(costs = Costs.zero) () =
  {
    cpu = Cpu.create engine;
    costs;
    id;
    engine;
    route = None;
    tx_hooks = [];
    rx_filters = [];
    listeners = Cm_util.Int_table.create 16;
    connected = Addr.Flow_table.create 16;
    next_port = 32768;
    unmatched = 0;
    tx_packets = 0;
    tx_bytes = 0;
  }

let id t = t.id
let engine t = t.engine
external cpu : t -> Cpu.t = "%field0"
external costs : t -> Costs.t = "%field1"
let attach_route t out = t.route <- Some out
let add_tx_hook t hook = t.tx_hooks <- t.tx_hooks @ [ hook ]
let add_rx_filter t filter = t.rx_filters <- t.rx_filters @ [ filter ]

(* The per-packet loops below are top-level functions taking every value
   they use as an argument: a local loop or a [List.iter] lambda that
   captured the packet would be a closure allocated per packet. *)
let rec run_tx_hooks pkt = function
  | [] -> ()
  | hook :: rest ->
      hook pkt;
      run_tx_hooks pkt rest

let ip_output t pkt =
  match t.route with
  | None -> failwith (Format.asprintf "Host.ip_output: host %d has no route" t.id)
  | Some out ->
      run_tx_hooks pkt t.tx_hooks;
      t.tx_packets <- t.tx_packets + 1;
      t.tx_bytes <- t.tx_bytes + pkt.Packet.size;
      out pkt

(* one int per (protocol, port), so a demux lookup builds no tuple *)
let listener_key proto port = (port lsl 1) lor (match proto with Addr.Tcp -> 0 | Addr.Udp -> 1)

let demux t pkt =
  (* demultiplexing ignores the service class: a peer may mark its
     packets with any DSCP *)
  let flow = Addr.strip_dscp pkt.Packet.flow in
  match Addr.Flow_table.find t.connected flow with
  | handler -> handler pkt
  | exception Not_found -> (
      let key = listener_key flow.Addr.proto flow.Addr.dst.Addr.port in
      match Cm_util.Int_table.find t.listeners key with
      | handler -> handler pkt
      | exception Not_found -> t.unmatched <- t.unmatched + 1)

(* receive filters run before demultiplexing; a filter may rewrite the
   packet (e.g. strip a CM header) or consume it outright *)
let rec filter_then_demux t filters pkt =
  match filters with
  | [] -> demux t pkt
  | f :: rest -> ( match f pkt with Some pkt -> filter_then_demux t rest pkt | None -> ())

let deliver t pkt = filter_then_demux t t.rx_filters pkt

let bind t proto ~port handler =
  let key = listener_key proto port in
  if Cm_util.Int_table.mem t.listeners key then
    invalid_arg (Printf.sprintf "Host.bind: port %d already bound on host %d" port t.id);
  Cm_util.Int_table.replace t.listeners key handler

let unbind t proto ~port = Cm_util.Int_table.remove t.listeners (listener_key proto port)

let connect_demux t flow handler =
  let flow = Addr.strip_dscp flow in
  if Addr.Flow_table.mem t.connected flow then
    invalid_arg (Format.asprintf "Host.connect_demux: %a already bound" Addr.pp_flow flow);
  Addr.Flow_table.replace t.connected flow handler

let disconnect_demux t flow = Addr.Flow_table.remove t.connected (Addr.strip_dscp flow)

let alloc_port t =
  let port = t.next_port in
  t.next_port <- t.next_port + 1;
  port

let unmatched t = t.unmatched
let tx_packets t = t.tx_packets
let tx_bytes t = t.tx_bytes
