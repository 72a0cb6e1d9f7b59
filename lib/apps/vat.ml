open Cm_util
open Eventsim
open Netsim

type vat_stats = {
  frames_in : int;
  policer_drops : int;
  buffer_drops : int;
  frames_sent : int;
}

type t = {
  libcm : Libcm.t;
  engine : Engine.t;
  socket : Udp.Socket.t;
  fid : Cm.Cm_types.flow_id;
  fb : Udp.Feedback.Sender.t;
  app_buffer_frames : int;
  buffer : int Byte_queue.t; (* frame sizes *)
  mutable clock : Timer.t;
  mutable running : bool;
  (* token-bucket policer *)
  mutable tokens : float;
  mutable policer_rate : float; (* bytes per second *)
  mutable last_refill : Time.t;
  mutable request_outstanding : bool;
  mutable s_frames_in : int;
  mutable s_policer_drops : int;
  mutable s_buffer_drops : int;
  mutable s_frames_sent : int;
}

(* 160-byte frames every 20 ms (64 kbit/s); the policer enforces 0.95 of
   the CM-reported rate *)
let frame_bytes = 160
let frame_interval = Time.ms 20
let headroom = 0.95

let refill t =
  let now = Engine.now t.engine in
  let dt = Time.to_float_s (Time.diff now t.last_refill) in
  t.last_refill <- now;
  (* bucket depth: two frames of burst *)
  t.tokens <-
    Float.min (float_of_int (2 * frame_bytes)) (t.tokens +. (dt *. t.policer_rate))

let maybe_request t =
  if (not t.request_outstanding) && not (Byte_queue.is_empty t.buffer) then begin
    t.request_outstanding <- true;
    Libcm.request t.libcm t.fid
  end

let on_grant t _fid =
  t.request_outstanding <- false;
  match Byte_queue.pop t.buffer with
  | None -> Libcm.notify t.libcm t.fid ~nbytes:0
  | Some bytes ->
      let now = Engine.now t.engine in
      let seq = Udp.Feedback.Sender.on_transmit t.fb ~bytes in
      Libcm.app_send t.libcm ~bytes;
      Udp.Socket.send t.socket ~payload_bytes:bytes (Udp.Feedback.Data { seq; bytes; ts = now });
      t.s_frames_sent <- t.s_frames_sent + 1;
      maybe_request t

let frame_tick t =
  if t.running then begin
    t.s_frames_in <- t.s_frames_in + 1;
    refill t;
    let fb = float_of_int frame_bytes in
    if t.tokens >= fb then begin
      t.tokens <- t.tokens -. fb;
      (* drop-from-head if the application buffer is full *)
      if Byte_queue.length t.buffer >= t.app_buffer_frames then begin
        ignore (Byte_queue.drop_head t.buffer);
        t.s_buffer_drops <- t.s_buffer_drops + 1
      end;
      Byte_queue.push t.buffer ~size:frame_bytes frame_bytes;
      maybe_request t
    end
    else t.s_policer_drops <- t.s_policer_drops + 1;
    Timer.start t.clock frame_interval
  end

let on_rate_update t (st : Cm.Cm_types.status) =
  (* long-term adaptation: the policer enforces the CM's rate estimate *)
  refill t;
  t.policer_rate <- Float.max 1_000. (st.Cm.Cm_types.rate_bps /. 8. *. headroom)

let create libcm ~host ~dst ?(rate_bps = 64_000.) ?(app_buffer_frames = 10) () =
  let engine = Host.engine host in
  let socket = Udp.Socket.create host () in
  Udp.Socket.connect socket dst;
  let key = Addr.flow ~src:(Udp.Socket.local socket) ~dst ~proto:Addr.Udp () in
  let fid = Libcm.open_flow libcm key in
  let t_ref = ref None in
  let fb =
    Udp.Feedback.Sender.create engine
      ~on_report:(fun ~nsent ~nrecd ~loss ~rtt ->
        match !t_ref with
        | Some t when t.running ->
            Libcm.app_recv t.libcm ~bytes:32;
            Libcm.app_gettimeofday t.libcm;
            Libcm.app_gettimeofday t.libcm;
            Libcm.update t.libcm t.fid ~nsent ~nrecd ~loss ?rtt ()
        | _ -> ())
      ()
  in
  let t =
    {
      libcm;
      engine;
      socket;
      fid;
      fb;
      app_buffer_frames;
      buffer = Byte_queue.create ~dummy:0 ();
      clock = Timer.create engine ~callback:(fun () -> ());
      running = false;
      tokens = float_of_int (2 * frame_bytes);
      policer_rate = rate_bps /. 8.;
      last_refill = Engine.now engine;
      request_outstanding = false;
      s_frames_in = 0;
      s_policer_drops = 0;
      s_buffer_drops = 0;
      s_frames_sent = 0;
    }
  in
  t_ref := Some t;
  t.clock <- Timer.create engine ~callback:(fun () -> frame_tick t);
  Udp.Socket.on_receive socket (fun pkt ->
      match pkt.Packet.payload with
      | Udp.Feedback.Ack { max_seq; count; bytes; ts_echo } ->
          Udp.Feedback.Sender.on_ack t.fb ~max_seq ~count ~bytes ~ts_echo
      | _ -> ());
  Libcm.register_send libcm fid (fun fid -> on_grant t fid);
  Libcm.register_update libcm fid (fun st -> on_rate_update t st);
  Libcm.set_thresh libcm fid ~down:0.9 ~up:1.1;
  t

let start t =
  if not t.running then begin
    t.running <- true;
    t.last_refill <- Engine.now t.engine;
    frame_tick t
  end

let stop t =
  if t.running then begin
    t.running <- false;
    Timer.stop t.clock;
    Udp.Feedback.Sender.shutdown t.fb
  end

let stats t =
  {
    frames_in = t.s_frames_in;
    policer_drops = t.s_policer_drops;
    buffer_drops = t.s_buffer_drops;
    frames_sent = t.s_frames_sent;
  }

let policer_rate_bps t = t.policer_rate *. 8.

module Receiver = struct
  type r = {
    engine : Engine.t;
    fb_recv : Udp.Feedback.Receiver.t;
    playout_delay : Time.span;
    mutable frames : int;
    mutable first_seq : int;
    mutable playout_base : Time.t; (* playout time of frame [first_seq] *)
    mutable on_time : int;
    mutable late : int;
    delays : Stats.t;
  }

  let create host ~port ?(playout_delay = Time.ms 100) () =
    let engine = Host.engine host in
    let socket = Udp.Socket.create host ~port () in
    let last_src = ref None in
    let receiver = ref None in
    let fb_recv =
      Udp.Feedback.Receiver.create engine
        ~send_ack:(fun ~max_seq ~count ~bytes ~ts_echo ->
          match !last_src with
          | Some dst ->
              Udp.Socket.sendto socket ~dst ~payload_bytes:32
                (Udp.Feedback.Ack { max_seq; count; bytes; ts_echo })
          | None -> ())
        ()
    in
    let r =
      {
        engine;
        fb_recv;
        playout_delay;
        frames = 0;
        first_seq = -1;
        playout_base = 0;
        on_time = 0;
        late = 0;
        delays = Stats.create ();
      }
    in
    receiver := Some r;
    Udp.Socket.on_receive socket (fun pkt ->
        match pkt.Packet.payload with
        | Udp.Feedback.Data { seq; bytes; ts } ->
            last_src := Some pkt.Packet.flow.Addr.src;
            r.frames <- r.frames + 1;
            let now = Engine.now engine in
            Stats.add r.delays (Time.to_float_ms (Time.diff now ts));
            (* playout clock: the first frame anchors the schedule; frame k
               must arrive before its slot [base + (k - first)·interval] or
               it misses playout *)
            if r.first_seq < 0 then begin
              r.first_seq <- seq;
              r.playout_base <- Time.add now r.playout_delay
            end;
            let slot =
              Time.add r.playout_base ((seq - r.first_seq) * frame_interval)
            in
            if now <= slot then r.on_time <- r.on_time + 1 else r.late <- r.late + 1;
            Udp.Feedback.Receiver.on_data fb_recv ~seq ~bytes ~ts
        | _ -> ());
    r

  let frames_received r = r.frames
  let delay_stats r = r.delays
  let playout_on_time r = r.on_time
  let playout_late r = r.late
end
