open Cm_util
open Netsim

type t = {
  host : Host.t;
  cm : Cm.t;
  socket : Socket.t;
  fid : Cm.Cm_types.flow_id;
  fb : Feedback.Sender.t;
  queue : int Byte_queue.t; (* payload sizes awaiting grants *)
  queue_limit : int;
  mutable drops : int;
  mutable sent_pkts : int;
  mutable sent_bytes : int;
  mutable requests_outstanding : int;
  mutable open_ : bool;
}

let sync_requests t =
  let want = Stdlib.min (Byte_queue.length t.queue) 256 in
  while t.requests_outstanding < want do
    t.requests_outstanding <- t.requests_outstanding + 1;
    Cm.request t.cm t.fid
  done

let on_grant t _fid =
  t.requests_outstanding <- Stdlib.max 0 (t.requests_outstanding - 1);
  match Byte_queue.pop t.queue with
  | None -> Cm.notify t.cm t.fid ~nbytes:0
  | Some bytes ->
      let now_ts = Eventsim.Engine.now (Host.engine t.host) in
      let seq = Feedback.Sender.on_transmit t.fb ~bytes in
      t.sent_pkts <- t.sent_pkts + 1;
      t.sent_bytes <- t.sent_bytes + bytes;
      Socket.send t.socket ~payload_bytes:bytes (Feedback.Data { seq; bytes; ts = now_ts })

let on_packet t pkt =
  match pkt.Packet.payload with
  | Feedback.Ack { max_seq; count; bytes; ts_echo } ->
      Feedback.Sender.on_ack t.fb ~max_seq ~count ~bytes ~ts_echo
  | _ -> ()

let create host ~cm ~dst ?(dscp = 0) ?port ?(queue_limit_pkts = 128) () =
  let socket = Socket.create host ~dscp ?port () in
  Socket.connect socket dst;
  let key = Addr.flow ~dscp ~src:(Socket.local socket) ~dst ~proto:Addr.Udp () in
  let fid = Cm.open_flow cm key in
  let rec t =
    lazy
      {
        host;
        cm;
        socket;
        fid;
        fb =
          Feedback.Sender.create (Host.engine host)
            ~on_report:(fun ~nsent ~nrecd ~loss ~rtt ->
              let self = Lazy.force t in
              if self.open_ then
                Cm.update cm fid ~nsent ~nrecd ~loss ?rtt ())
            ();
        queue = Byte_queue.create ~dummy:0 ();
        queue_limit = queue_limit_pkts;
        drops = 0;
        sent_pkts = 0;
        sent_bytes = 0;
        requests_outstanding = 0;
        open_ = true;
      }
  in
  let t = Lazy.force t in
  Cm.register_send cm fid (fun fid -> on_grant t fid);
  Socket.on_receive socket (fun pkt -> on_packet t pkt);
  t

let send t bytes =
  if not t.open_ then invalid_arg "Cc_socket.send: socket closed";
  let mtu = Cm.mtu t.cm t.fid in
  if bytes <= 0 || bytes > mtu then
    invalid_arg (Printf.sprintf "Cc_socket.send: payload must be in (0, %d]" mtu);
  if Byte_queue.length t.queue >= t.queue_limit then t.drops <- t.drops + 1
  else begin
    Byte_queue.push t.queue ~size:bytes bytes;
    sync_requests t
  end

let queued t = Byte_queue.length t.queue
let unresolved_packets t = Feedback.Sender.outstanding_packets t.fb
let queue_drops t = t.drops
let packets_sent t = t.sent_pkts
let bytes_sent t = t.sent_bytes
let flow t = t.fid

let close t =
  if t.open_ then begin
    t.open_ <- false;
    Feedback.Sender.shutdown t.fb;
    Cm.close_flow t.cm t.fid;
    Socket.close t.socket;
    Byte_queue.clear t.queue
  end

let run_echo_receiver host ~port ?batch () =
  let socket = Socket.create host ~port () in
  let receiver = ref None in
  (* ack back to whoever sent the most recent data packet; with one sender
     per port this is exact (multi-sender receivers should build their own
     Receiver per peer) *)
  let last_src = ref None in
  Socket.on_receive socket (fun pkt ->
      match pkt.Packet.payload with
      | Feedback.Data { seq; bytes; ts } -> (
          last_src := Some pkt.Packet.flow.Addr.src;
          match !receiver with
          | Some r -> Feedback.Receiver.on_data r ~seq ~bytes ~ts
          | None -> ())
      | _ -> ());
  let r =
    Feedback.Receiver.create (Host.engine host)
      ~send_ack:(fun ~max_seq ~count ~bytes ~ts_echo ->
        match !last_src with
        | Some dst ->
            Socket.sendto socket ~dst ~payload_bytes:32
              (Feedback.Ack { max_seq; count; bytes; ts_echo })
        | None -> ())
      ?batch ()
  in
  receiver := Some r;
  r
