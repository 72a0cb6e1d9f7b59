open Eventsim
open Netsim

(* The outgoing flows are built once, not per datagram: [conn_flow] in
   [connect], and [to_flow] for the last [sendto] destination, rebuilt
   only when the destination changes.  Both carry the socket's dscp. *)
type t = {
  host : Host.t;
  dscp : int;
  local : Addr.endpoint;
  mutable peer : Addr.endpoint option;
  mutable conn_flow : Addr.flow;
  mutable to_flow : Addr.flow;
  mutable recv_cb : Packet.t -> unit;
  mutable open_ : bool;
  mutable sent : int;
  mutable received : int;
}

let create host ?(dscp = 0) ?port () =
  let port = match port with Some p -> p | None -> Host.alloc_port host in
  let local = Addr.endpoint ~host:(Host.id host) ~port in
  (* a placeholder until the first send; also validates [dscp] *)
  let self = Addr.flow ~dscp ~src:local ~dst:local ~proto:Addr.Udp () in
  let t =
    {
      host;
      dscp;
      local;
      peer = None;
      conn_flow = self;
      to_flow = self;
      recv_cb = (fun _ -> ());
      open_ = false;
      sent = 0;
      received = 0;
    }
  in
  Host.bind host Addr.Udp ~port (fun pkt ->
      t.received <- t.received + 1;
      t.recv_cb pkt);
  t.open_ <- true;
  t

let connect t dst =
  t.peer <- Some dst;
  t.conn_flow <- Addr.flow ~dscp:t.dscp ~src:t.local ~dst ~proto:Addr.Udp ();
  (* exact-match demux for the return path, so a busy port can host both a
     listener and connected sockets *)
  let in_flow = Addr.flow ~src:dst ~dst:t.local ~proto:Addr.Udp () in
  Host.connect_demux t.host in_flow (fun pkt ->
      t.received <- t.received + 1;
      t.recv_cb pkt)

let output t flow ~payload_bytes payload =
  let pkt =
    Packet.make ~now:(Engine.now (Host.engine t.host)) ~flow ~payload_bytes payload
  in
  t.sent <- t.sent + 1;
  Host.ip_output t.host pkt

let sendto t ~dst ~payload_bytes payload =
  if not t.open_ then invalid_arg "Socket.sendto: socket closed";
  if not (Addr.equal_endpoint t.to_flow.Addr.dst dst) then
    t.to_flow <- Addr.flow ~dscp:t.dscp ~src:t.local ~dst ~proto:Addr.Udp ();
  output t t.to_flow ~payload_bytes payload

let send t ~payload_bytes payload =
  match t.peer with
  | Some _ ->
      if not t.open_ then invalid_arg "Socket.sendto: socket closed";
      output t t.conn_flow ~payload_bytes payload
  | None -> invalid_arg "Socket.send: socket not connected"

let on_receive t cb = t.recv_cb <- cb
let local t = t.local
let peer t = t.peer

let close t =
  if t.open_ then begin
    t.open_ <- false;
    Host.unbind t.host Addr.Udp ~port:t.local.Addr.port;
    match t.peer with
    | Some dst ->
        Host.disconnect_demux t.host (Addr.flow ~src:dst ~dst:t.local ~proto:Addr.Udp ())
    | None -> ()
  end

let dscp t = t.dscp
let packets_sent t = t.sent
let packets_received t = t.received
