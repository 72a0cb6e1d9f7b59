open Cm_util
open Eventsim
open Netsim

let header_bytes = 8

type Packet.payload +=
  | Data of { seq : int; ts : Time.t; inner : Packet.payload }
  | Feedback of {
      data_flow : Addr.flow;
      epoch : int;
      fb_seq : int;
      max_seq : int;
      total_count : int;
      total_bytes : int;
      ts_echo : Time.t;
    }
  | Resync of { data_flow : Addr.flow; epoch : int }
  | Solicit of { data_flow : Addr.flow }

let unwrap = function Data { inner; _ } -> inner | p -> p

let is_control pkt =
  match pkt.Packet.payload with
  | Feedback _ | Resync _ | Solicit _ -> true
  | _ -> false

(* feedback packets travel host-to-host on a reserved flow; they are
   consumed by the sender agent's receive filter and never demultiplexed *)
let feedback_flow ~from_host ~to_host =
  Addr.flow
    ~src:(Addr.endpoint ~host:from_host ~port:0)
    ~dst:(Addr.endpoint ~host:to_host ~port:0)
    ~proto:Addr.Udp ()

let feedback_wire_bytes = 40
let control_wire_bytes = 16

(* ------------------------------------------------------------------ *)

module Receiver_agent = struct
  type flow_state = {
    mutable pending_count : int;
    mutable total_count : int; (* cumulative this epoch *)
    mutable total_bytes : int;
    mutable max_seq : int;
    mutable ts_latest : Time.t;
    mutable fb_seq : int;
    fb_flow : Addr.flow; (* to the data sender's host, built once *)
    timer : Timer.t;
  }

  type t = {
    host : Host.t;
    ack_every : int;
    flows : flow_state Addr.Flow_table.t;
    mutable epoch : int; (* incarnation; bumped on restart *)
    mutable up : bool;
    mutable feedback_sent : int;
    mutable data_seen : int;
    mutable dropped_while_down : int;
    mutable resyncs_sent : int;
  }

  (* the longest a received data packet waits for its feedback *)
  let max_delay = Time.ms 100

  (* Feedback carries *cumulative* per-epoch totals under a per-flow
     feedback sequence number: any single feedback packet supersedes every
     earlier one, so the sender can drop duplicates and reordered
     stragglers without losing information. *)
  let flush ?(force = false) t data_flow st =
    if st.pending_count > 0 || force then begin
      let ts_echo = if st.pending_count > 0 then st.ts_latest else 0 in
      st.fb_seq <- st.fb_seq + 1;
      let pkt =
        Packet.make
          ~now:(Engine.now (Host.engine t.host))
          ~flow:st.fb_flow ~payload_bytes:feedback_wire_bytes
          (Feedback
             {
               data_flow;
               epoch = t.epoch;
               fb_seq = st.fb_seq;
               max_seq = st.max_seq;
               total_count = st.total_count;
               total_bytes = st.total_bytes;
               ts_echo;
             })
      in
      st.pending_count <- 0;
      Timer.stop st.timer;
      t.feedback_sent <- t.feedback_sent + 1;
      Host.ip_output t.host pkt
    end

  let send_resync t data_flow =
    t.resyncs_sent <- t.resyncs_sent + 1;
    let pkt =
      Packet.make
        ~now:(Engine.now (Host.engine t.host))
        ~flow:(feedback_flow ~from_host:(Host.id t.host) ~to_host:data_flow.Addr.src.Addr.host)
        ~payload_bytes:control_wire_bytes
        (Resync { data_flow; epoch = t.epoch })
    in
    Host.ip_output t.host pkt

  let state_for t data_flow ~first_seq =
    match Addr.Flow_table.find t.flows data_flow with
    | st -> st
    | exception Not_found ->
        let rec st =
          lazy
            {
              pending_count = 0;
              total_count = 0;
              total_bytes = 0;
              max_seq = -1;
              ts_latest = 0;
              fb_seq = 0;
              fb_flow =
                feedback_flow ~from_host:(Host.id t.host) ~to_host:data_flow.Addr.src.Addr.host;
              timer =
                Timer.create (Host.engine t.host) ~callback:(fun () ->
                    flush t data_flow (Lazy.force st));
            }
        in
        let st = Lazy.force st in
        Addr.Flow_table.replace t.flows data_flow st;
        (* a flow whose first packet arrives mid-stream means our state
           for it is gone (this agent restarted): tell the sending CM to
           discard its per-flow picture instead of waiting on
           acknowledgments that will never come *)
        if first_seq > 0 then send_resync t data_flow;
        st

  let on_data t pkt ~seq ~ts ~inner =
    t.data_seen <- t.data_seen + 1;
    let data_flow = pkt.Packet.flow in
    let st = state_for t data_flow ~first_seq:seq in
    st.pending_count <- st.pending_count + 1;
    st.total_count <- st.total_count + 1;
    (* byte counts are in CM-charged payload units (header included), so
       feedback resolves exactly what cm_notify charged *)
    st.total_bytes <- st.total_bytes + Packet.payload_bytes pkt;
    if seq > st.max_seq then st.max_seq <- seq;
    st.ts_latest <- ts;
    if st.pending_count >= t.ack_every then flush t data_flow st
    else if not (Timer.is_running st.timer) then Timer.start st.timer max_delay;
    (* hand the unwrapped packet to the unmodified application *)
    Some { pkt with Packet.payload = inner }

  let on_solicit t data_flow =
    match Addr.Flow_table.find t.flows data_flow with
    | st -> flush ~force:true t data_flow st
    | exception Not_found ->
        (* we hold no state for the solicited flow — a crash took it, or
           the first data packet never arrived; either way the sender must
           resynchronize *)
        send_resync t data_flow

  let crash t =
    if t.up then begin
      t.up <- false;
      Addr.Flow_table.iter (fun _ st -> Timer.stop st.timer) t.flows;
      Addr.Flow_table.reset t.flows
    end

  let restart t =
    if not t.up then begin
      t.up <- true;
      t.epoch <- t.epoch + 1
    end

  let install host ?(ack_every = 2) () =
    if ack_every <= 0 then invalid_arg "Receiver_agent.install: ack_every must be positive";
    let t =
      {
        host;
        ack_every;
        flows = Addr.Flow_table.create 16;
        epoch = 0;
        up = true;
        feedback_sent = 0;
        data_seen = 0;
        dropped_while_down = 0;
        resyncs_sent = 0;
      }
    in
    Host.add_rx_filter host (fun pkt ->
        match pkt.Packet.payload with
        | Data { seq; ts; inner } ->
            if t.up then on_data t pkt ~seq ~ts ~inner
            else begin
              (* no agent to strip the CM header: the wrapped packet is
                 useless to the application, i.e. lost *)
              t.dropped_while_down <- t.dropped_while_down + 1;
              None
            end
        | Solicit { data_flow } ->
            if t.up then on_solicit t data_flow;
            None
        | _ -> Some pkt);
    t

  let feedback_sent t = t.feedback_sent
  let data_seen t = t.data_seen
  let epoch t = t.epoch
  let dropped_while_down t = t.dropped_while_down
  let resyncs_sent t = t.resyncs_sent
end

(* ------------------------------------------------------------------ *)

module Sender_agent = struct
  (* Per-flow feedback guard: the receiver's cumulative encoding makes
     acceptance a pure monotonicity test — accept a feedback packet iff
     its (epoch, fb_seq) advances, then apply the *delta* of its totals
     against what was already applied.  Duplicates and reordered
     stragglers carry strict subsets and are dropped whole; an epoch
     advance means the receiver agent restarted. *)
  type guard = {
    mutable g_epoch : int;
    mutable g_fb_seq : int; (* last accepted; -1 = none this epoch *)
    mutable g_max_seq : int;
    mutable g_count : int; (* cumulative totals already applied *)
    mutable g_bytes : int;
  }

  type entry = {
    on_feedback : max_seq:int -> count:int -> bytes:int -> ts_echo:Time.t -> unit;
    on_resync : unit -> unit;
    guard : guard;
  }

  type counters = {
    feedback_received : int;
    orphan_feedback : int;
    dup_feedback : int;
    stale_feedback : int;
    bad_echoes : int;
    resyncs : int;
  }

  type t = {
    host : Host.t;
    cm : Cm.t;
    entries : entry Int_table.t;
    mutable feedback_received : int;
    mutable orphan : int;
    mutable dups : int;
    mutable stale : int;
    mutable bad_echoes : int;
    mutable resyncs : int;
  }

  let begin_epoch ent epoch =
    let g = ent.guard in
    g.g_epoch <- epoch;
    g.g_fb_seq <- -1;
    g.g_count <- 0;
    g.g_bytes <- 0

  let resync_entry t ent epoch =
    begin_epoch ent epoch;
    t.resyncs <- t.resyncs + 1;
    ent.on_resync ()

  let deliver t ent ~epoch ~fb_seq ~max_seq ~total_count ~total_bytes ~ts_echo =
    let g = ent.guard in
    if epoch < g.g_epoch then t.stale <- t.stale + 1
    else begin
      if epoch > g.g_epoch then
        (* the receiver agent restarted and its first announcement was the
           feedback itself (the Resync may have been lost) *)
        resync_entry t ent epoch;
      if fb_seq <= g.g_fb_seq then t.dups <- t.dups + 1
      else begin
        g.g_fb_seq <- fb_seq;
        (* reorder-safe merge: cumulative max_seq can never regress *)
        let merged = Int.max g.g_max_seq max_seq in
        g.g_max_seq <- merged;
        let count = Int.max 0 (total_count - g.g_count) in
        let bytes = Int.max 0 (total_bytes - g.g_bytes) in
        g.g_count <- Int.max g.g_count total_count;
        g.g_bytes <- Int.max g.g_bytes total_bytes;
        (* ts_echo sanity clamp: an echo from the future would yield a
           negative RTT sample; count it and drop the sample (0 = none),
           never feed it to the estimator *)
        let ts_echo =
          if ts_echo > Engine.now (Host.engine t.host) then begin
            t.bad_echoes <- t.bad_echoes + 1;
            0
          end
          else ts_echo
        in
        ent.on_feedback ~max_seq:merged ~count ~bytes ~ts_echo
      end
    end

  let install host cm =
    let t =
      {
        host;
        cm;
        entries = Int_table.create 16;
        feedback_received = 0;
        orphan = 0;
        dups = 0;
        stale = 0;
        bad_echoes = 0;
        resyncs = 0;
      }
    in
    Host.add_rx_filter host (fun pkt ->
        match pkt.Packet.payload with
        | Feedback { data_flow; epoch; fb_seq; max_seq; total_count; total_bytes; ts_echo } ->
            t.feedback_received <- t.feedback_received + 1;
            (match Cm.lookup t.cm data_flow with
            | Some fid -> (
                match Int_table.find t.entries fid with
                | ent -> deliver t ent ~epoch ~fb_seq ~max_seq ~total_count ~total_bytes ~ts_echo
                | exception Not_found -> t.orphan <- t.orphan + 1)
            | None -> t.orphan <- t.orphan + 1);
            None (* consumed: applications never see CM feedback *)
        | Resync { data_flow; epoch } ->
            (match Cm.lookup t.cm data_flow with
            | Some fid -> (
                match Int_table.find t.entries fid with
                | ent ->
                    if epoch > ent.guard.g_epoch then resync_entry t ent epoch
                    else t.stale <- t.stale + 1
                | exception Not_found -> t.orphan <- t.orphan + 1)
            | None -> t.orphan <- t.orphan + 1);
            None
        | _ -> Some pkt);
    t

  let register t fid ~on_feedback ?(on_resync = ignore) () =
    Int_table.replace t.entries fid
      {
        on_feedback;
        on_resync;
        guard = { g_epoch = 0; g_fb_seq = -1; g_max_seq = -1; g_count = 0; g_bytes = 0 };
      }

  let unregister t fid = Int_table.remove t.entries fid
  let feedback_received t = t.feedback_received
  let orphan_feedback t = t.orphan

  let counters t =
    {
      feedback_received = t.feedback_received;
      orphan_feedback = t.orphan;
      dup_feedback = t.dups;
      stale_feedback = t.stale;
      bad_echoes = t.bad_echoes;
      resyncs = t.resyncs;
    }

  let register_gauges t tel =
    Telemetry.gauge tel "cmproto.feedback_received" (fun () -> float_of_int t.feedback_received);
    Telemetry.gauge tel "cmproto.orphan_feedback" (fun () -> float_of_int t.orphan);
    Telemetry.gauge tel "cmproto.dup_feedback" (fun () -> float_of_int t.dups);
    Telemetry.gauge tel "cmproto.stale_feedback" (fun () -> float_of_int t.stale);
    Telemetry.gauge tel "cmproto.bad_echoes" (fun () -> float_of_int t.bad_echoes);
    Telemetry.gauge tel "cmproto.resyncs" (fun () -> float_of_int t.resyncs)
end

(* ------------------------------------------------------------------ *)

module Session = struct
  type t = {
    agent : Sender_agent.t;
    host : Host.t;
    cm : Cm.t;
    socket : Udp.Socket.t;
    fid : Cm.Cm_types.flow_id;
    key : Addr.flow;
    ledger : Udp.Feedback.Sender.t;
    queue : int Byte_queue.t;
    queue_limit : int;
    (* the last datagram's inner payload, reused while the size repeats *)
    mutable raw : Packet.payload;
    mutable raw_bytes : int;
    mutable sent_pkts : int;
    mutable sent_bytes : int;
    mutable requests_outstanding : int;
    mutable open_ : bool;
  }

  let sync_requests t =
    let want = Int.min (Byte_queue.length t.queue) 256 in
    while t.requests_outstanding < want do
      t.requests_outstanding <- t.requests_outstanding + 1;
      Cm.request t.cm t.fid
    done

  let on_grant t _fid =
    t.requests_outstanding <- Int.max 0 (t.requests_outstanding - 1);
    if Byte_queue.is_empty t.queue then Cm.notify t.cm t.fid ~nbytes:0
    else begin
      let bytes = Byte_queue.take t.queue in
      let now = Engine.now (Host.engine t.host) in
      let seq = Udp.Feedback.Sender.on_transmit t.ledger ~bytes:(bytes + header_bytes) in
      t.sent_pkts <- t.sent_pkts + 1;
      t.sent_bytes <- t.sent_bytes + bytes;
      if bytes <> t.raw_bytes then begin
        t.raw <- Packet.Raw bytes;
        t.raw_bytes <- bytes
      end;
      Udp.Socket.send t.socket
        ~payload_bytes:(bytes + header_bytes)
        (Data { seq; ts = now; inner = t.raw })
    end

  (* Feedback has starved while data is outstanding: ask the receiver
     agent directly.  Pure control traffic on the reserved feedback flow —
     never charged by the CM, so a blackout costs a trickle of
     solicitations, not window. *)
  let solicit t =
    if t.open_ then begin
      let pkt =
        Packet.make
          ~now:(Engine.now (Host.engine t.host))
          ~flow:
            (feedback_flow ~from_host:(Host.id t.host) ~to_host:t.key.Addr.dst.Addr.host)
          ~payload_bytes:control_wire_bytes
          (Solicit { data_flow = t.key })
      in
      Host.ip_output t.host pkt
    end

  let create agent ~host ~cm ~dst ?(dscp = 0) ?port ?(queue_limit_pkts = 128) () =
    let socket = Udp.Socket.create host ~dscp ?port () in
    Udp.Socket.connect socket dst;
    let key = Addr.flow ~dscp ~src:(Udp.Socket.local socket) ~dst ~proto:Addr.Udp () in
    let fid = Cm.open_flow cm key in
    let t_ref = ref None in
    let ledger =
      Udp.Feedback.Sender.create (Host.engine host)
        ~on_report:(fun ~nsent ~nrecd ~loss ~rtt ->
          match !t_ref with
          | Some t when t.open_ ->
              Cm.update cm fid ~nsent ~nrecd ~loss ?rtt ()
          | _ -> ())
        ~on_starve:(fun () -> match !t_ref with Some t -> solicit t | None -> ())
        ()
    in
    let t =
      {
        agent;
        host;
        cm;
        socket;
        fid;
        key;
        ledger;
        queue = Byte_queue.create ~dummy:0 ();
        queue_limit = queue_limit_pkts;
        raw = Packet.Raw 0;
        raw_bytes = 0;
        sent_pkts = 0;
        sent_bytes = 0;
        requests_outstanding = 0;
        open_ = true;
      }
    in
    t_ref := Some t;
    Cm.register_send cm fid (fun fid -> on_grant t fid);
    Sender_agent.register agent fid
      ~on_feedback:(fun ~max_seq ~count ~bytes ~ts_echo ->
        Udp.Feedback.Sender.on_ack t.ledger ~max_seq ~count ~bytes ~ts_echo)
      ~on_resync:(fun () -> Udp.Feedback.Sender.resync t.ledger)
      ();
    t

  let send t bytes =
    if not t.open_ then invalid_arg "Cmproto.Session.send: session closed";
    let mtu = Cm.mtu t.cm t.fid - header_bytes in
    if bytes <= 0 || bytes > mtu then
      invalid_arg (Printf.sprintf "Cmproto.Session.send: payload must be in (0, %d]" mtu);
    if Byte_queue.length t.queue < t.queue_limit then begin
      Byte_queue.push t.queue ~size:bytes bytes;
      sync_requests t
    end

  let queued t = Byte_queue.length t.queue
  let packets_sent t = t.sent_pkts
  let bytes_sent t = t.sent_bytes
  let unresolved_packets t = Udp.Feedback.Sender.outstanding_packets t.ledger
  let solicits_sent t = Udp.Feedback.Sender.solicits t.ledger
  let flow t = t.fid

  let close t =
    if t.open_ then begin
      t.open_ <- false;
      Udp.Feedback.Sender.shutdown t.ledger;
      Sender_agent.unregister t.agent t.fid;
      Cm.close_flow t.cm t.fid;
      Udp.Socket.close t.socket;
      Byte_queue.clear t.queue
    end
end
