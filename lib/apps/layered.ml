open Cm_util
open Eventsim
open Netsim

type mode = Alf | Rate_callback of { down : float; up : float }

type t = {
  libcm : Libcm.t;
  host : Host.t;
  engine : Engine.t;
  socket : Udp.Socket.t;
  fid : Cm.Cm_types.flow_id;
  fb : Udp.Feedback.Sender.t;
  layers : float array;
  mode : mode;
  packet_bytes : int;
  mutable running : bool;
  mutable layer : int;
  mutable requests_outstanding : int;
  mutable clock : Timer.t; (* rate-callback transmission clock *)
  mutable sent_pkts : int;
  mutable sent_bytes : int;
  tx_tl : Timeline.t;
  rate_tl : Timeline.t;
  layer_tl : Timeline.t;
}

(* outstanding ALF requests kept open, and the fraction of the reported
   rate the source dares to use *)
let pipeline = 4
let headroom = 0.9

let layer_for t rate_bps =
  (* always keep at least the base layer flowing: a silent source gets no
     feedback and could never discover that bandwidth came back *)
  let budget = rate_bps *. headroom in
  let chosen = ref 0 in
  Array.iteri (fun i r -> if r <= budget then chosen := i) t.layers;
  !chosen

let note_layer t layer =
  let prev = t.layer in
  t.layer <- layer;
  let rate = if layer >= 0 then t.layers.(layer) else 0. in
  (* adaptation decisions (Figs. 8–10) as trace instants, on the CM's
     timeline; only actual switches are events, steady state is covered by
     the sampled rate series *)
  (if layer <> prev then
     let tr = Cm.trace (Libcm.cm t.libcm) in
     if Telemetry.Trace.on tr then
       Telemetry.Trace.instant tr ~cat:"app" "app.layer"
         [
           ("flow", Telemetry.Trace.Int t.fid);
           ("from", Telemetry.Trace.Int prev);
           ("to", Telemetry.Trace.Int layer);
           ("rate_bps", Telemetry.Trace.Float rate);
         ]);
  Timeline.record t.layer_tl (Engine.now t.engine) rate

let transmit_packet t =
  let now = Engine.now t.engine in
  let bytes = t.packet_bytes in
  let seq = Udp.Feedback.Sender.on_transmit t.fb ~bytes in
  Libcm.app_send t.libcm ~bytes;
  Udp.Socket.send t.socket ~payload_bytes:bytes (Udp.Feedback.Data { seq; bytes; ts = now });
  t.sent_pkts <- t.sent_pkts + 1;
  t.sent_bytes <- t.sent_bytes + bytes;
  Timeline.record t.tx_tl now (float_of_int bytes)

(* ---- ALF (request/callback) mode ---------------------------------- *)

let alf_sync_requests t =
  if t.running then
    while t.requests_outstanding < pipeline do
      t.requests_outstanding <- t.requests_outstanding + 1;
      Libcm.request t.libcm t.fid
    done

let alf_on_grant t _fid =
  t.requests_outstanding <- Int.max 0 (t.requests_outstanding - 1);
  if t.running then begin
    (* last-minute adaptation: query the network state per packet *)
    let st = Libcm.query t.libcm t.fid in
    Timeline.record t.rate_tl (Engine.now t.engine) st.Cm.Cm_types.rate_bps;
    note_layer t (layer_for t st.Cm.Cm_types.rate_bps);
    transmit_packet t;
    alf_sync_requests t
  end
  else Libcm.notify t.libcm t.fid ~nbytes:0

(* ---- rate-callback mode -------------------------------------------- *)

let interval_for t =
  let rate = if t.layer >= 0 then t.layers.(t.layer) else t.layers.(0) /. 2. in
  let rate = Float.max rate 8_000. in
  Time.sec (float_of_int (t.packet_bytes * 8) /. rate)

let rate_tick t =
  if t.running then begin
    if t.layer >= 0 then transmit_packet t;
    Timer.start t.clock (interval_for t)
  end

let on_rate_update t (st : Cm.Cm_types.status) =
  if t.running then begin
    Timeline.record t.rate_tl (Engine.now t.engine) st.Cm.Cm_types.rate_bps;
    note_layer t (layer_for t st.Cm.Cm_types.rate_bps)
  end

(* ---- construction --------------------------------------------------- *)

let create libcm ~host ~dst ~layers ~mode ?(packet_bytes = 1000) ?feedback_timeout () =
  if Array.length layers = 0 then invalid_arg "Layered.create: need at least one layer";
  let engine = Host.engine host in
  let socket = Udp.Socket.create host () in
  Udp.Socket.connect socket dst;
  let key = Addr.flow ~src:(Udp.Socket.local socket) ~dst ~proto:Addr.Udp () in
  let fid = Libcm.open_flow libcm key in
  let t_ref = ref None in
  let fb =
    Udp.Feedback.Sender.create engine ?timeout_floor:feedback_timeout
      ~on_report:(fun ~nsent ~nrecd ~loss ~rtt ->
        match !t_ref with
        | Some t when t.running ->
            (* the app processed an ack in user space: a recv and the
               timestamp reads for the RTT computation *)
            Libcm.app_recv t.libcm ~bytes:32;
            Libcm.app_gettimeofday t.libcm;
            Libcm.app_gettimeofday t.libcm;
            Libcm.update t.libcm t.fid ~nsent ~nrecd ~loss ?rtt ()
        | _ -> ())
      ()
  in
  let clock = Timer.create engine ~callback:(fun () -> ()) in
  let t =
    {
      libcm;
      host;
      engine;
      socket;
      fid;
      fb;
      layers;
      mode;
      packet_bytes;
      running = false;
      layer = -1;
      requests_outstanding = 0;
      clock;
      sent_pkts = 0;
      sent_bytes = 0;
      tx_tl = Timeline.create ();
      rate_tl = Timeline.create ();
      layer_tl = Timeline.create ();
    }
  in
  t_ref := Some t;
  t.clock <- Timer.create engine ~callback:(fun () -> rate_tick t);
  Udp.Socket.on_receive socket (fun pkt ->
      match pkt.Packet.payload with
      | Udp.Feedback.Ack { max_seq; count; bytes; ts_echo } ->
          Udp.Feedback.Sender.on_ack t.fb ~max_seq ~count ~bytes ~ts_echo
      | _ -> ());
  (match mode with
  | Alf -> Libcm.register_send libcm fid (fun fid -> alf_on_grant t fid)
  | Rate_callback { down; up } ->
      Libcm.register_update libcm fid (fun st -> on_rate_update t st);
      Libcm.set_thresh libcm fid ~down ~up);
  t

let start t =
  if not t.running then begin
    t.running <- true;
    match t.mode with
    | Alf -> alf_sync_requests t
    | Rate_callback _ ->
        (* probe: begin at the lowest layer until the CM reports a rate *)
        note_layer t 0;
        rate_tick t
  end

let stop t =
  if t.running then begin
    t.running <- false;
    Timer.stop t.clock;
    Udp.Feedback.Sender.shutdown t.fb
  end

let current_layer t = t.layer
let packets_sent t = t.sent_pkts
let bytes_sent t = t.sent_bytes
let tx_timeline t = t.tx_tl
let rate_timeline t = t.rate_tl
let layer_timeline t = t.layer_tl
let flow t = t.fid
