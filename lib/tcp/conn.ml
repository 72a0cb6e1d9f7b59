open Cm_util
open Eventsim
open Netsim

let log = Eventsim.Sim_log.src "tcp"

type driver = Native | Cm_driven of Cm.t

type config = {
  mss : int;
  rwnd : int;
  delayed_acks : bool;
  delack_timeout : Time.span;
  initial_window_pkts : int;
  nagle : bool;
  timestamps : bool;
  ecn : bool;
  sack : bool;
  min_rto : Time.span;
  msl : Time.span;
}

let default_config =
  {
    mss = 1448;
    rwnd = 1 lsl 20;
    delayed_acks = true;
    delack_timeout = Time.ms 200;
    initial_window_pkts = 2;
    nagle = false;
    timestamps = true;
    ecn = false;
    sack = true;
    min_rto = Time.ms 200;
    msl = Time.sec 1.;
  }

type state =
  | Closed
  | Listen
  | Syn_sent
  | Syn_received
  | Established
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Last_ack
  | Closing
  | Time_wait

type stats = {
  bytes_sent : int;
  bytes_acked : int;
  bytes_delivered : int;
  segments_out : int;
  acks_out : int;
  retransmits : int;
  fast_retransmits : int;
  timeouts : int;
  rtt_samples : int;
}

(* Native Reno/NewReno controller state. *)
type cc_native = {
  mutable cwnd : int;
  mutable nat_ssthresh : int;
  mutable in_recovery : bool;
  mutable nat_recover : int;
}

(* CM-driven controller state (paper §3.2). *)
type cc_cm = {
  cm : Cm.t;
  mutable fid : Cm.Cm_types.flow_id option;
  mutable requests_outstanding : int;
  mutable rexmit_pending : bool;
  mutable unresolved_tx : int; (* transmitted payload bytes not yet reported via cm_update *)
  mutable prereported : int;
      (* bytes already reported to the CM from duplicate-ack inference that a
         later cumulative ack will cover again; prevents double counting *)
  mutable cm_recover : int; (* end of the window in which we last reported Transient *)
}

type cc = Cc_native of cc_native | Cc_cm of cc_cm

(* Segments waiting for the host CPU in one direction: out (to IP) or in
   (from demux).  Host CPU work items complete in submission order, so the
   ring is drained by one closure that pops its head — no closure per
   packet.  Built on the direction's first costed packet: a zero-cost host
   never queues for its CPU, so its connections never build one. *)
type cpu_queue = { ring : Packet.t Byte_queue.t; drain : unit -> unit }

type t = {
  host : Host.t;
  engine : Engine.t;
  config : config;
  mutable state : state;
  local : Addr.endpoint;
  remote : Addr.endpoint;
  out_flow : Addr.flow; (* 5-tuple of packets we transmit *)
  in_flow : Addr.flow; (* 5-tuple of packets we receive *)
  (* --- send side ----------------------------------------------------- *)
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable snd_limit : int; (* sequence number just past queued app data *)
  mutable snd_wnd : int; (* peer's advertised window *)
  mutable fin_queued : bool;
  mutable dupacks : int;
  mutable highest_sent : int; (* for unique-bytes accounting *)
  mutable sacked : (int * int) list; (* scoreboard: disjoint sorted [start,stop) above snd_una *)
  mutable hole_next : int; (* RFC 3517-style NextSeg pointer: holes below this were already retransmitted this recovery *)
  cc : cc;
  rto_est : Rto.t;
  (* Timers.  [rto_timer] and [delack_timer] are built in [make_conn];
     the rare ones (consume, persist, TIME_WAIT) hold [no_timer] until
     their first arm, which most connections never reach. *)
  mutable rto_timer : Timer.t;
  (* --- receive side --------------------------------------------------- *)
  mutable rcv_nxt : int;
  mutable ooo : (int * int) list; (* disjoint [start,stop) above rcv_nxt, sorted *)
  mutable fin_rcvd : int option; (* sequence number of the peer's FIN *)
  (* flow control: with a finite consumer, in-order data sits in the
     receive buffer until the app drains it, shrinking the advertised
     window *)
  mutable rcv_buffered : int;
  mutable consume_rate : float option; (* bytes/s; None = infinite *)
  mutable consume_timer : Timer.t;
  mutable last_advertised : int;
  (* persist: probe a zero window so a lost window update cannot deadlock *)
  mutable persist_timer : Timer.t;
  mutable persist_backoff : int;
  mutable segs_since_ack : int;
  mutable quickack : int;
      (* Linux-style quickack: acknowledge the first segments of a
         connection immediately so the sender's slow start is never held
         hostage by the delayed-ack timer *)
  mutable delack_timer : Timer.t;
  mutable pending_ece : bool; (* receiver: echo congestion on next ack *)
  mutable ts_to_echo : Time.t; (* TSval to echo (of segment that caused next ack) *)
  mutable ts_echo_armed : bool;
  (* --- sender ECN / Karn ---------------------------------------------- *)
  mutable ecn_reacted_at : int; (* ignore further ECE until snd_una passes this *)
  mutable karn_timed_seq : int; (* Karn: end seq of the timed segment; -1 if none *)
  mutable karn_sent_at : Time.t;
  (* --- lifecycle ------------------------------------------------------ *)
  mutable time_wait_timer : Timer.t;
  mutable recv_cb : int -> unit;
  mutable established_cb : unit -> unit;
  mutable closed_cb : unit -> unit;
  mutable established_fired : bool;
  mutable closed_fired : bool;
  (* --- host CPU work -------------------------------------------------- *)
  mutable tx_cpu : cpu_queue option;
  mutable rx_cpu : cpu_queue option;
  (* --- stats ----------------------------------------------------------- *)
  mutable s_bytes_sent : int;
  mutable s_bytes_delivered : int;
  mutable s_segments_out : int;
  mutable s_acks_out : int;
  mutable s_retransmits : int;
  mutable s_fast_retransmits : int;
  mutable s_timeouts : int;
  mutable s_rtt_samples : int;
  (* telemetry: CM-driven connections inherit their CM's trace sink so
     loss-classification events land on the same timeline as the
     controller's reactions; nil (one branch per event) otherwise *)
  trace : Telemetry.Trace.t;
}

type listener = { l_host : Host.t; l_port : int }

(* A stopped timer on an engine nothing runs, shared by every connection:
   the value of a timer field until its timer is built.  Nothing arms it
   ([Timer.stop] and [Timer.is_running] only read a stopped timer), so it
   never changes. *)
let no_timer = Timer.create Engine.inert ~callback:ignore

(* Sequence-number layout: ISS = 0; the SYN occupies sequence 0; app data
   occupies [1, snd_limit); an eventual FIN occupies snd_limit. *)
let iss = 0
let data_start = iss + 1

(* ------------------------------------------------------------------ *)
(* Segment construction and transmission *)

let fin_seq t = t.snd_limit
let fin_sent t = t.snd_nxt > t.snd_limit
let advertised_wnd t = Stdlib.max 0 (t.config.rwnd - t.rcv_buffered)

let sack_blocks t =
  if not t.config.sack then []
  else begin
    (* up to three out-of-order ranges the receiver is holding *)
    let rec take n = function
      | [] -> []
      | _ when n = 0 -> []
      | b :: rest -> b :: take (n - 1) rest
    in
    take 3 t.ooo
  end

let build_segment t ~seq ~len ~syn ~fin ~with_ack =
  Segment.make ~seq ~len ~syn ~fin ~ack:with_ack ~ack_seq:t.rcv_nxt ~wnd:(advertised_wnd t)
    ~ts_val:(if t.config.timestamps then Engine.now t.engine else 0)
    ~ts_ecr:(if t.config.timestamps then t.ts_to_echo else 0)
    ~ece:t.pending_ece
    ~sacks:(if with_ack then sack_blocks t else [])

let transmit t seg =
  let payload = seg.Segment.len in
  let pkt =
    Packet.make ~now:(Engine.now t.engine) ~flow:t.out_flow ~payload_bytes:payload
      (Segment.Tcp_seg seg)
  in
  if t.config.ecn && payload > 0 then Packet.set_ecn_capable pkt;
  if Segment.ece seg then t.pending_ece <- false;
  if Segment.ack seg then begin
    t.segs_since_ack <- 0;
    t.ts_echo_armed <- false;
    Timer.stop t.delack_timer
  end;
  let costs = Host.costs t.host in
  let cost = costs.Costs.tcp_proc + costs.Costs.ip_proc in
  if cost = 0 then Host.ip_output t.host pkt
  else begin
    let q =
      match t.tx_cpu with
      | Some q -> q
      | None ->
          let ring = Byte_queue.create ~dummy:Packet.dummy () in
          let q = { ring; drain = (fun () -> Host.ip_output t.host (Byte_queue.take ring)) } in
          t.tx_cpu <- Some q;
          q
    in
    Byte_queue.push q.ring ~size:pkt.Packet.size pkt;
    Cpu.run (Host.cpu t.host) ~cost q.drain
  end

let send_pure_ack t =
  t.s_acks_out <- t.s_acks_out + 1;
  t.last_advertised <- advertised_wnd t;
  transmit t (build_segment t ~seq:t.snd_nxt ~len:0 ~syn:false ~fin:false ~with_ack:true)

(* ------------------------------------------------------------------ *)
(* RTO timer management *)

let arm_rto t =
  Timer.start t.rto_timer (Stdlib.max t.config.min_rto (Rto.rto t.rto_est))

let rto_restart_or_stop t =
  if t.snd_una < t.snd_nxt then arm_rto t else Timer.stop t.rto_timer

(* ------------------------------------------------------------------ *)
(* Karn timing (only when timestamps are disabled) *)

let karn_maybe_time t ~seq ~len ~retransmission =
  if (not t.config.timestamps) && (not retransmission) && len > 0 && t.karn_timed_seq < 0
  then begin
    t.karn_timed_seq <- seq + len;
    t.karn_sent_at <- Engine.now t.engine
  end

let karn_invalidate t = t.karn_timed_seq <- -1

(* ------------------------------------------------------------------ *)
(* Data segment emission *)

let emit_data t ~seq ~len ~fin ~retransmission =
  if retransmission then begin
    t.s_retransmits <- t.s_retransmits + 1;
    karn_invalidate t
  end
  else karn_maybe_time t ~seq ~len ~retransmission;
  t.s_segments_out <- t.s_segments_out + 1;
  if seq + len > t.highest_sent then begin
    t.s_bytes_sent <- t.s_bytes_sent + (seq + len - Stdlib.max t.highest_sent seq);
    t.highest_sent <- seq + len
  end;
  transmit t (build_segment t ~seq ~len ~syn:false ~fin ~with_ack:true);
  let seg_end = seq + len + if fin then 1 else 0 in
  if seg_end > t.snd_nxt then t.snd_nxt <- seg_end;
  if not (Timer.is_running t.rto_timer) then arm_rto t

(* The CM driver mirrors every transmission into its unresolved counter —
   the bytes it will later explain to the CM via cm_update. *)
let note_tx cc len = if len > 0 then cc.unresolved_tx <- cc.unresolved_tx + len

(* ------------------------------------------------------------------ *)
(* SACK scoreboard (RFC 2018): which bytes above snd_una the receiver
   already holds, so recovery retransmits only the holes. *)

let scoreboard_merge t blocks =
  if t.config.sack && blocks <> [] then begin
    let all = List.rev_append blocks t.sacked in
    let sorted = List.sort (fun (a, _) (b, _) -> Stdlib.compare a b) all in
    let coalesced =
      List.fold_left
        (fun acc (s, e) ->
          match acc with
          | (ps, pe) :: rest when s <= pe -> (ps, Stdlib.max pe e) :: rest
          | _ -> (s, e) :: acc)
        [] sorted
    in
    t.sacked <- List.rev coalesced
  end

let scoreboard_prune t =
  t.sacked <-
    List.filter_map
      (fun (s, e) ->
        if e <= t.snd_una then None else Some (Stdlib.max s t.snd_una, e))
      t.sacked

let scoreboard_clear t = t.sacked <- []

(* first unsacked hole not yet retransmitted this recovery (the NextSeg
   pointer avoids re-sending the same hole on every duplicate ack),
   clipped to [mss] and to the next sacked block *)
let next_hole t =
  let from = Stdlib.max t.snd_una t.hole_next in
  let rec walk seq = function
    | [] ->
        if seq < t.snd_limit then Some (seq, Stdlib.min t.config.mss (t.snd_limit - seq))
        else None
    | (s, e) :: rest ->
        if seq < s then Some (seq, Stdlib.min t.config.mss (Stdlib.min (s - seq) (t.snd_limit - seq)))
        else walk (Stdlib.max seq e) rest
  in
  if from >= t.snd_limit then None else walk from t.sacked

(* only bytes below the highest SACKed byte are presumed lost; with an
   empty scoreboard (SACK off) just the first unacked segment is *)
let loss_edge t =
  List.fold_left (fun acc (_, e) -> Stdlib.max acc e) (t.snd_una + t.config.mss) t.sacked

(* retransmit the next presumed-lost hole and advance the pointer *)
let retransmit_hole t =
  let edge = loss_edge t in
  match next_hole t with
  | Some (seq, len) when seq < edge && seq < t.snd_nxt ->
      let len = Stdlib.min len (edge - seq) in
      t.hole_next <- seq + len;
      emit_data t ~seq ~len ~fin:false ~retransmission:true;
      true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Output engines *)

(* data may be (re)transmitted in any synchronized state: a timeout can
   roll snd_nxt back below queued data even after our FIN went out *)
let data_ready t =
  match t.state with
  | Established | Close_wait | Fin_wait_1 | Closing | Last_ack -> true
  | Closed | Listen | Syn_sent | Syn_received | Fin_wait_2 | Time_wait -> false

let can_carry_fin t =
  t.fin_queued && (not (fin_sent t)) && t.snd_nxt = t.snd_limit
  && (t.state = Established || t.state = Close_wait || t.state = Fin_wait_1 || t.state = Closing
    || t.state = Last_ack)

let enter_fin_states t =
  (* the FIN is (about to be) transmitted: move the state machine *)
  match t.state with
  | Established -> t.state <- Fin_wait_1
  | Close_wait -> t.state <- Last_ack
  | _ -> ()

(* a new segment: at most one MSS of queued data, and no byte past the
   peer's window, which a receiver would truncate *)
let new_segment_len t =
  Stdlib.min t.config.mss (Stdlib.min (t.snd_limit - t.snd_nxt) (t.snd_una + t.snd_wnd - t.snd_nxt))

let native_output t cc =
  if data_ready t || t.fin_queued then begin
    let continue = ref true in
    while !continue do
      continue := false;
      let wnd = Stdlib.min cc.cwnd t.snd_wnd in
      let in_flight = t.snd_nxt - t.snd_una in
      if t.snd_nxt < t.snd_limit && in_flight < wnd && data_ready t then begin
        let len = new_segment_len t in
        let nagle_hold =
          t.config.nagle && len < t.config.mss && in_flight > 0
          && not (t.fin_queued && t.snd_nxt + len = t.snd_limit)
        in
        if not nagle_hold then begin
          let fin = t.fin_queued && t.snd_nxt + len = t.snd_limit in
          if fin then enter_fin_states t;
          emit_data t ~seq:t.snd_nxt ~len ~fin ~retransmission:false;
          continue := true
        end
      end
      else if can_carry_fin t && in_flight < wnd + t.config.mss then begin
        enter_fin_states t;
        emit_data t ~seq:t.snd_nxt ~len:0 ~fin:true ~retransmission:false
      end
    done
  end

(* Issue enough cm_requests to cover the work we have; each grant callback
   transmits at most one MTU (paper §2.1.2). *)
let cm_sync_requests t cc =
  match cc.fid with
  | None -> ()
  | Some fid ->
      let new_data = Stdlib.max 0 (t.snd_limit - Stdlib.max t.snd_nxt t.snd_una) in
      let in_flight = t.snd_nxt - t.snd_una in
      let window_limited = Stdlib.max 0 (Stdlib.min new_data (t.snd_wnd - in_flight)) in
      let want =
        (if cc.rexmit_pending then 1 else 0)
        + ((window_limited + t.config.mss - 1) / t.config.mss)
        + (if can_carry_fin t && data_ready t then 1 else 0)
      in
      let want = Stdlib.min want 256 in
      let cm_op = (Host.costs t.host).Costs.cm_op in
      while cc.requests_outstanding < want do
        cc.requests_outstanding <- cc.requests_outstanding + 1;
        Cpu.charge (Host.cpu t.host) cm_op;
        Cm.request cc.cm fid
      done

(* return an unused grant; top level, so a grant allocates no closure *)
let cm_decline cc = match cc.fid with Some fid -> Cm.notify cc.cm fid ~nbytes:0 | None -> ()

let cm_grant_callback t cc _fid =
  Cpu.charge (Host.cpu t.host) (Host.costs t.host).Costs.cm_op;
  cc.requests_outstanding <- Stdlib.max 0 (cc.requests_outstanding - 1);
  if cc.rexmit_pending && t.snd_una < t.snd_limit then begin
    cc.rexmit_pending <- false;
    match next_hole t with
    | Some (seq, len) when len > 0 && seq < t.snd_nxt ->
        t.hole_next <- seq + len;
        note_tx cc len;
        emit_data t ~seq ~len ~fin:false ~retransmission:true
    | _ -> cm_decline cc
  end
  else if
    t.snd_nxt < t.snd_limit && t.snd_nxt - t.snd_una < t.snd_wnd && data_ready t
  then begin
    let len = new_segment_len t in
    note_tx cc len;
    let fin = t.fin_queued && t.snd_nxt + len = t.snd_limit in
    if fin then enter_fin_states t;
    emit_data t ~seq:t.snd_nxt ~len ~fin ~retransmission:false;
    cm_sync_requests t cc
  end
  else if can_carry_fin t then begin
    enter_fin_states t;
    emit_data t ~seq:t.snd_nxt ~len:0 ~fin:true ~retransmission:false
  end
  else begin
    cc.rexmit_pending <- false;
    cm_decline cc
  end

let window_stalled t =
  data_ready t && t.snd_nxt < t.snd_limit && t.snd_una = t.snd_nxt
  && t.snd_wnd < t.config.mss

let rec arm_persist t =
  if not (Timer.is_running t.persist_timer) then begin
    if t.persist_timer == no_timer then
      t.persist_timer <- Timer.create t.engine ~callback:(fun () -> on_persist t);
    let base = Stdlib.max t.config.min_rto (Rto.rto t.rto_est) in
    let backoff = Stdlib.min t.persist_backoff 6 in
    Timer.start t.persist_timer (Stdlib.min (Time.sec 60.) (base lsl backoff))
  end

and on_persist t =
  if t.state <> Closed && window_stalled t then begin
    t.persist_backoff <- t.persist_backoff + 1;
    (* window probe: one byte of real data past the advertised window.  A
       closed receiver drops it, so it is not taken as in flight (BSD's
       persist state): [snd_nxt] stays put, no retransmission timer or
       RTT sample starts, the CM is not charged, and the persist timer
       alone repeats it.  An ack covering it (the window had reopened)
       pulls [snd_nxt] forward. *)
    emit_data t ~seq:t.snd_nxt ~len:1 ~fin:false ~retransmission:false;
    t.snd_nxt <- t.snd_una;
    karn_invalidate t;
    rto_restart_or_stop t;
    arm_persist t
  end
  else t.persist_backoff <- 0

let tcp_output t =
  (match t.cc with
  | Cc_native cc -> native_output t cc
  | Cc_cm cc -> cm_sync_requests t cc);
  if window_stalled t then arm_persist t

(* ------------------------------------------------------------------ *)
(* Sender-side congestion events *)

let flight_size t = Stdlib.max 0 (t.snd_nxt - t.snd_una)

let native_on_new_ack t cc ~acked =
  if cc.in_recovery then begin
    if t.snd_una >= cc.nat_recover then begin
      (* full acknowledgment: leave recovery, deflate to ssthresh *)
      cc.in_recovery <- false;
      cc.cwnd <- cc.nat_ssthresh;
      t.dupacks <- 0
    end
    else begin
      (* partial ack during recovery: retransmit the next hole the
         scoreboard exposes (plain NewReno when SACK is off), with
         partial window deflation *)
      t.hole_next <- Stdlib.max t.hole_next t.snd_una;
      ignore (retransmit_hole t);
      cc.cwnd <- Stdlib.max t.config.mss (cc.cwnd - acked + t.config.mss)
    end
  end
  else begin
    t.dupacks <- 0;
    (* The paper's TCP/Linux baseline: ACK counting — each ACK is assumed
       to cover a full MSS. *)
    if cc.cwnd < cc.nat_ssthresh then cc.cwnd <- cc.cwnd + t.config.mss
    else cc.cwnd <- cc.cwnd + Stdlib.max 1 (t.config.mss * t.config.mss / cc.cwnd)
  end

let native_on_dupack t cc =
  t.dupacks <- t.dupacks + 1;
  if (not cc.in_recovery) && t.dupacks = 3 then begin
    cc.nat_ssthresh <- Stdlib.max (flight_size t / 2) (2 * t.config.mss);
    cc.nat_recover <- t.snd_nxt;
    cc.in_recovery <- true;
    Logs.debug ~src:log (fun m ->
        m "%a: fast retransmit at snd_una=%d" Addr.pp_flow t.out_flow t.snd_una);
    t.s_fast_retransmits <- t.s_fast_retransmits + 1;
    t.hole_next <- t.snd_una;
    if not (retransmit_hole t) then
      if t.fin_queued && fin_sent t then
        emit_data t ~seq:t.snd_una ~len:0 ~fin:true ~retransmission:true;
    cc.cwnd <- cc.nat_ssthresh + (3 * t.config.mss)
  end
  else if cc.in_recovery then begin
    cc.cwnd <- cc.cwnd + t.config.mss;
    (* with SACK information, keep repairing holes while dupacks arrive
       (one per dupack) *)
    if t.config.sack && t.sacked <> [] then ignore (retransmit_hole t);
    native_output t cc
  end

let cm_report (t : t) cc ~nsent ~nrecd ~loss ~rtt =
  match cc.fid with
  | None -> ()
  | Some fid ->
      let nsent = Stdlib.min nsent cc.unresolved_tx in
      let nrecd = Stdlib.min nrecd nsent in
      cc.unresolved_tx <- cc.unresolved_tx - nsent;
      if nsent > 0 || loss <> Cm.Cm_types.No_loss || rtt <> None then begin
        Cpu.charge (Host.cpu t.host) (Host.costs t.host).Costs.cm_op;
        Cm.update cc.cm fid ~nsent ~nrecd ~loss ?rtt ()
      end

let cm_on_new_ack t cc ~acked ~rtt =
  (* bytes already explained to the CM via dupack inference must not be
     reported twice *)
  let offset = Stdlib.min acked cc.prereported in
  cc.prereported <- cc.prereported - offset;
  cm_report t cc ~nsent:(acked - offset) ~nrecd:(acked - offset) ~loss:Cm.Cm_types.No_loss ~rtt;
  if t.snd_una >= cc.cm_recover then t.dupacks <- 0
  else if t.snd_una < t.snd_nxt then begin
    (* NewReno-style partial ack during recovery: the next hole is also
       lost; queue its retransmission and ask the CM for a grant *)
    cc.rexmit_pending <- true;
    cm_sync_requests t cc
  end

let cm_on_dupack t cc =
  t.dupacks <- t.dupacks + 1;
  if t.dupacks = 3 && t.snd_una >= cc.cm_recover then begin
    (* one segment presumed lost to congestion: tell the CM, queue the
       retransmission, and ask for a grant (paper §3.2) *)
    cc.cm_recover <- t.snd_nxt;
    t.hole_next <- t.snd_una;
    t.s_fast_retransmits <- t.s_fast_retransmits + 1;
    cc.prereported <- cc.prereported + t.config.mss;
    if Telemetry.Trace.on t.trace then
      Telemetry.Trace.instant t.trace ~cat:"tcp" "tcp.fast_rexmit"
        [
          ("flow", Telemetry.Trace.Str (Format.asprintf "%a" Addr.pp_flow t.out_flow));
          ("snd_una", Telemetry.Trace.Int t.snd_una);
          ("classified", Telemetry.Trace.Str "transient");
        ];
    cm_report t cc ~nsent:t.config.mss ~nrecd:0 ~loss:Cm.Cm_types.Transient ~rtt:None;
    cc.rexmit_pending <- true;
    cm_sync_requests t cc
  end
  else if t.dupacks > 3 then begin
    (* a segment left the network and reached the receiver *)
    cc.prereported <- cc.prereported + t.config.mss;
    cm_report t cc ~nsent:t.config.mss ~nrecd:t.config.mss ~loss:Cm.Cm_types.No_loss ~rtt:None
  end

let on_ecn_echo t =
  if t.snd_una >= t.ecn_reacted_at then begin
    t.ecn_reacted_at <- t.snd_nxt;
    if Telemetry.Trace.on t.trace then
      Telemetry.Trace.instant t.trace ~cat:"tcp" "tcp.ecn_echo"
        [
          ("flow", Telemetry.Trace.Str (Format.asprintf "%a" Addr.pp_flow t.out_flow));
          ("snd_una", Telemetry.Trace.Int t.snd_una);
          ("classified", Telemetry.Trace.Str "ecn");
        ];
    match t.cc with
    | Cc_native cc ->
        cc.nat_ssthresh <- Stdlib.max (flight_size t / 2) (2 * t.config.mss);
        cc.cwnd <- cc.nat_ssthresh
    | Cc_cm cc -> cm_report t cc ~nsent:0 ~nrecd:0 ~loss:Cm.Cm_types.Ecn_echo ~rtt:None
  end

(* ------------------------------------------------------------------ *)
(* Retransmission timeout *)

let close_cm_flow t =
  match t.cc with
  | Cc_cm cc -> (
      match cc.fid with
      | Some fid ->
          cc.fid <- None;
          Cm.close_flow cc.cm fid
      | None -> ())
  | Cc_native _ -> ()

let become_closed t =
  if t.state <> Closed then begin
    t.state <- Closed;
    Timer.stop t.rto_timer;
    Timer.stop t.delack_timer;
    Timer.stop t.time_wait_timer;
    Timer.stop t.persist_timer;
    Timer.stop t.consume_timer;
    Host.disconnect_demux t.host t.in_flow;
    close_cm_flow t;
    if not t.closed_fired then begin
      t.closed_fired <- true;
      t.closed_cb ()
    end
  end

let enter_time_wait t =
  if t.state <> Time_wait then begin
    t.state <- Time_wait;
    Timer.stop t.rto_timer;
    if t.time_wait_timer == no_timer then
      t.time_wait_timer <- Timer.create t.engine ~callback:(fun () -> become_closed t);
    Timer.start t.time_wait_timer (2 * t.config.msl)
  end

let on_rto t =
  if t.state <> Closed && t.state <> Time_wait && t.snd_una < t.snd_nxt then begin
    Logs.debug ~src:log (fun m ->
        m "%a: retransmission timeout (snd_una=%d snd_nxt=%d)" Addr.pp_flow t.out_flow t.snd_una
          t.snd_nxt);
    t.s_timeouts <- t.s_timeouts + 1;
    if Telemetry.Trace.on t.trace then
      Telemetry.Trace.instant t.trace ~cat:"tcp" "tcp.rto"
        [
          ("flow", Telemetry.Trace.Str (Format.asprintf "%a" Addr.pp_flow t.out_flow));
          ("snd_una", Telemetry.Trace.Int t.snd_una);
          ("snd_nxt", Telemetry.Trace.Int t.snd_nxt);
          ("classified", Telemetry.Trace.Str "persistent");
        ];
    Rto.backoff t.rto_est;
    karn_invalidate t;
    scoreboard_clear t;
    t.hole_next <- t.snd_una;
    t.dupacks <- 0;
    (match t.cc with
    | Cc_native cc ->
        cc.nat_ssthresh <- Stdlib.max (flight_size t / 2) (2 * t.config.mss);
        cc.cwnd <- t.config.mss;
        cc.in_recovery <- false
    | Cc_cm cc ->
        (* persistent congestion: everything outstanding is presumed lost *)
        cm_report t cc ~nsent:cc.unresolved_tx ~nrecd:0 ~loss:Cm.Cm_types.Persistent ~rtt:None;
        cc.prereported <- 0;
        cc.rexmit_pending <- false;
        cc.cm_recover <- t.snd_nxt);
    (* go-back-N from the last cumulative ack *)
    t.snd_nxt <- t.snd_una;
    (match t.state with
    | Syn_sent ->
        t.snd_nxt <- iss;
        t.s_segments_out <- t.s_segments_out + 1;
        transmit t (build_segment t ~seq:iss ~len:0 ~syn:true ~fin:false ~with_ack:false)
    | Syn_received ->
        t.snd_nxt <- iss;
        t.s_segments_out <- t.s_segments_out + 1;
        transmit t (build_segment t ~seq:iss ~len:0 ~syn:true ~fin:false ~with_ack:true)
    | _ -> (
        match t.cc with
        | Cc_native _ ->
            (* retransmit one segment immediately; the rest follows acks *)
            let len = Stdlib.min t.config.mss (t.snd_limit - t.snd_nxt) in
            if len > 0 then emit_data t ~seq:t.snd_nxt ~len ~fin:false ~retransmission:true
            else if t.fin_queued then
              emit_data t ~seq:t.snd_nxt ~len:0 ~fin:true ~retransmission:true
        | Cc_cm cc ->
            cc.rexmit_pending <- true;
            cm_sync_requests t cc));
    (match t.state with
    | Syn_sent | Syn_received -> t.snd_nxt <- iss + 1
    | _ -> ());
    arm_rto t
  end

(* ------------------------------------------------------------------ *)
(* Receiver side: reassembly and acknowledgment policy *)

let deliver t n =
  if n > 0 then begin
    match t.consume_rate with
    | None ->
        t.s_bytes_delivered <- t.s_bytes_delivered + n;
        t.recv_cb n
    | Some _ -> t.rcv_buffered <- t.rcv_buffered + n
  end

(* a finite consumer drains the receive buffer on a 10 ms tick and sends a
   window update when the window reopens meaningfully (from zero, or by at
   least one MSS since last advertised) *)
let consume_tick t =
  match t.consume_rate with
  | None -> ()
  | Some rate ->
      let drained = Stdlib.min t.rcv_buffered (int_of_float (rate /. 100.)) in
      if drained > 0 then begin
        t.rcv_buffered <- t.rcv_buffered - drained;
        t.s_bytes_delivered <- t.s_bytes_delivered + drained;
        t.recv_cb drained;
        let now_wnd = advertised_wnd t in
        if
          (t.last_advertised = 0 && now_wnd > 0)
          || now_wnd - t.last_advertised >= t.config.mss
        then send_pure_ack t
      end

let ooo_add t start stop =
  (* insert and coalesce; the list is short in practice *)
  let segs = (start, stop) :: t.ooo in
  let sorted = List.sort (fun (a, _) (b, _) -> Stdlib.compare a b) segs in
  let coalesced =
    List.fold_left
      (fun acc (s, e) ->
        match acc with
        | (ps, pe) :: rest when s <= pe -> (ps, Stdlib.max pe e) :: rest
        | _ -> (s, e) :: acc)
      [] sorted
  in
  t.ooo <- List.rev coalesced

(* pull contiguous data out of the ooo store after rcv_nxt advanced *)
let ooo_drain t =
  let rec walk () =
    match t.ooo with
    | (s, e) :: rest when s <= t.rcv_nxt ->
        if e > t.rcv_nxt then begin
          deliver t (e - t.rcv_nxt);
          t.rcv_nxt <- e
        end;
        t.ooo <- rest;
        walk ()
    | _ -> ()
  in
  walk ()

let fin_deliverable t =
  match t.fin_rcvd with Some seq when seq = t.rcv_nxt -> true | _ -> false

let on_fin_delivered t =
  t.rcv_nxt <- t.rcv_nxt + 1;
  match t.state with
  | Established -> t.state <- Close_wait
  | Fin_wait_1 ->
      (* our FIN not yet acked: simultaneous close *)
      t.state <- Closing
  | Fin_wait_2 -> enter_time_wait t
  | _ -> ()

let ack_policy t ~forced =
  if forced || (not t.config.delayed_acks) || t.quickack > 0 then begin
    if t.quickack > 0 then t.quickack <- t.quickack - 1;
    send_pure_ack t
  end
  else begin
    t.segs_since_ack <- t.segs_since_ack + 1;
    if t.segs_since_ack >= 2 then send_pure_ack t
    else if not (Timer.is_running t.delack_timer) then
      Timer.start t.delack_timer t.config.delack_timeout
  end

(* ------------------------------------------------------------------ *)
(* Main segment processing *)

let rtt_sample t seg =
  if t.config.timestamps then begin
    if seg.Segment.ts_ecr > 0 then begin
      let sample = Time.diff (Engine.now t.engine) seg.Segment.ts_ecr in
      if sample > 0 then Some sample else None
    end
    else None
  end
  else if t.karn_timed_seq >= 0 && seg.Segment.ack_seq >= t.karn_timed_seq then begin
    let sample = Time.diff (Engine.now t.engine) t.karn_sent_at in
    t.karn_timed_seq <- -1;
    if sample > 0 then Some sample else None
  end
  else None

let observe_rtt t sample =
  match sample with
  | Some s ->
      Rto.observe t.rto_est s;
      t.s_rtt_samples <- t.s_rtt_samples + 1
  | None -> ()

let fire_established t =
  if not t.established_fired then begin
    t.established_fired <- true;
    t.established_cb ()
  end

let handle_ack t seg =
  let ack = seg.Segment.ack_seq in
  t.snd_wnd <- seg.Segment.wnd;
  scoreboard_merge t seg.Segment.sacks;
  (* After a go-back-N rollback the receiver may acknowledge data above
     our snd_nxt (it had received it before the timeout); such an ack is
     valid and pulls snd_nxt forward. *)
  if ack > t.snd_nxt && ack <= t.snd_limit + 1 then t.snd_nxt <- ack;
  if ack > t.snd_una && ack <= t.snd_nxt then begin
    let prev_una = t.snd_una in
    t.snd_una <- ack;
    t.hole_next <- Stdlib.max t.hole_next t.snd_una;
    scoreboard_prune t;
    Rto.reset_backoff t.rto_est;
    (* count only data bytes (exclude SYN and FIN sequence units) *)
    let lo = Stdlib.max prev_una data_start in
    let hi = Stdlib.min ack (t.snd_limit + 1) in
    let acked_data = Stdlib.max 0 (Stdlib.min hi (t.snd_limit) - Stdlib.min lo t.snd_limit) in
    let rtt = rtt_sample t seg in
    observe_rtt t rtt;
    if t.snd_wnd >= t.config.mss then begin
      Timer.stop t.persist_timer;
      t.persist_backoff <- 0
    end;
    (match t.cc with
    | Cc_native cc -> native_on_new_ack t cc ~acked:acked_data
    | Cc_cm cc -> cm_on_new_ack t cc ~acked:acked_data ~rtt);
    if Segment.ece seg && t.config.ecn then on_ecn_echo t;
    (* state transitions driven by our FIN being acknowledged *)
    if fin_sent t && ack > fin_seq t then begin
      match t.state with
      | Fin_wait_1 -> t.state <- Fin_wait_2
      | Closing -> enter_time_wait t
      | Last_ack -> become_closed t
      | _ -> ()
    end;
    rto_restart_or_stop t;
    tcp_output t
  end
  else if
    ack = t.snd_una && t.snd_una = t.snd_nxt && seg.Segment.len = 0
    && (not (Segment.syn seg)) && not (Segment.fin seg)
  then begin
    (* pure window update while nothing is in flight: resume sending *)
    if t.snd_wnd >= t.config.mss then begin
      Timer.stop t.persist_timer;
      t.persist_backoff <- 0;
      tcp_output t
    end
  end
  else if
    ack = t.snd_una && t.snd_una < t.snd_nxt && seg.Segment.len = 0
    && (not (Segment.syn seg)) && not (Segment.fin seg)
  then begin
    (match t.cc with
    | Cc_native cc -> native_on_dupack t cc
    | Cc_cm cc -> cm_on_dupack t cc);
    if Segment.ece seg && t.config.ecn then on_ecn_echo t
  end
  else if Segment.ece seg && t.config.ecn then on_ecn_echo t

let handle_data t seg =
  let seq = seg.Segment.seq in
  (* receiver-side window enforcement: data beyond rcv_nxt + advertised
     window does not fit in the buffer and is dropped (its FIN with it) *)
  let window_edge = t.rcv_nxt + advertised_wnd t in
  let len = Stdlib.min seg.Segment.len (Stdlib.max 0 (window_edge - seq)) in
  let truncated = len < seg.Segment.len in
  if len > 0 || Segment.fin seg then begin
    if Segment.fin seg && not truncated then t.fin_rcvd <- Some (seq + len);
    if len > 0 then begin
      let stop = seq + len in
      if seq <= t.rcv_nxt && stop > t.rcv_nxt then begin
        (* advances the window (possibly with partial overlap) *)
        if not t.ts_echo_armed then begin
          t.ts_echo_armed <- true;
          t.ts_to_echo <- seg.Segment.ts_val
        end;
        deliver t (stop - t.rcv_nxt);
        t.rcv_nxt <- stop;
        ooo_drain t;
        if fin_deliverable t then begin
          on_fin_delivered t;
          ack_policy t ~forced:true
        end
        else if t.ooo <> [] then ack_policy t ~forced:true
        else ack_policy t ~forced:false
      end
      else if seq > t.rcv_nxt then begin
        (* out of order: store and emit an immediate duplicate ack *)
        ooo_add t seq stop;
        ack_policy t ~forced:true
      end
      else
        (* stale duplicate *)
        ack_policy t ~forced:true
    end
    else if fin_deliverable t then begin
      if not t.ts_echo_armed then begin
        t.ts_echo_armed <- true;
        t.ts_to_echo <- seg.Segment.ts_val
      end;
      on_fin_delivered t;
      ack_policy t ~forced:true
    end
    else if t.fin_rcvd <> None then
      (* FIN above a hole *)
      ack_policy t ~forced:true
  end

let process_segment t seg ~ecn_marked =
  if ecn_marked then t.pending_ece <- true;
  match t.state with
  | Closed | Listen -> ()
  | Syn_sent ->
      if Segment.syn seg && Segment.ack seg && seg.Segment.ack_seq = iss + 1 then begin
        t.rcv_nxt <- seg.Segment.seq + 1;
        t.snd_una <- seg.Segment.ack_seq;
        t.ts_to_echo <- seg.Segment.ts_val;
        observe_rtt t (rtt_sample t seg);
        t.state <- Established;
        Timer.stop t.rto_timer;
        send_pure_ack t;
        fire_established t;
        tcp_output t
      end
  | Syn_received ->
      if Segment.ack seg && seg.Segment.ack_seq = iss + 1 then begin
        t.snd_una <- seg.Segment.ack_seq;
        t.snd_wnd <- seg.Segment.wnd;
        observe_rtt t (rtt_sample t seg);
        t.state <- Established;
        Timer.stop t.rto_timer;
        fire_established t;
        (* the handshake-completing segment may already carry data *)
        handle_data t seg;
        tcp_output t
      end
      else if Segment.syn seg && not (Segment.ack seg) then
        (* retransmitted SYN: re-send SYN|ACK *)
        transmit t (build_segment t ~seq:iss ~len:0 ~syn:true ~fin:false ~with_ack:true)
  | Established | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing | Last_ack ->
      if Segment.ack seg then handle_ack t seg;
      if t.state <> Closed then handle_data t seg
  | Time_wait ->
      (* peer retransmitted its FIN: re-ack it *)
      if Segment.fin seg then send_pure_ack t

let process_packet t pkt =
  match pkt.Packet.payload with
  | Segment.Tcp_seg seg -> process_segment t seg ~ecn_marked:(Packet.ecn_marked pkt)
  | _ -> ()

let on_packet t pkt =
  match pkt.Packet.payload with
  | Segment.Tcp_seg _ ->
      let costs = Host.costs t.host in
      let cost = costs.Costs.intr_rx + costs.Costs.tcp_proc in
      if cost = 0 then process_packet t pkt
      else begin
        let q =
          match t.rx_cpu with
          | Some q -> q
          | None ->
              let ring = Byte_queue.create ~dummy:Packet.dummy () in
              let q = { ring; drain = (fun () -> process_packet t (Byte_queue.take ring)) } in
              t.rx_cpu <- Some q;
              q
        in
        Byte_queue.push q.ring ~size:pkt.Packet.size pkt;
        Cpu.run (Host.cpu t.host) ~cost q.drain
      end
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Construction *)

let make_conn host ~local ~remote ~driver ~config ~initial_state =
  let engine = Host.engine host in
  let out_flow = Addr.flow ~src:local ~dst:remote ~proto:Addr.Tcp () in
  let in_flow = Addr.reverse out_flow in
  let cc =
    match driver with
    | Native ->
        Cc_native
          {
            cwnd = config.initial_window_pkts * config.mss;
            nat_ssthresh = 1 lsl 30;
            in_recovery = false;
            nat_recover = 0;
          }
    | Cm_driven cm ->
        Cc_cm
          {
            cm;
            fid = None;
            requests_outstanding = 0;
            rexmit_pending = false;
            unresolved_tx = 0;
            prereported = 0;
            cm_recover = 0;
          }
  in
  let dummy () = () in
  let t =
    {
      host;
      engine;
      config;
      state = initial_state;
      local;
      remote;
      out_flow;
      in_flow;
      snd_una = iss;
      snd_nxt = iss;
      snd_limit = data_start;
      snd_wnd = config.rwnd;
      fin_queued = false;
      dupacks = 0;
      highest_sent = data_start;
      sacked = [];
      hole_next = 0;
      cc;
      rto_est = Rto.create ~min_rto:config.min_rto ();
      rto_timer = no_timer;
      rcv_nxt = 0;
      ooo = [];
      fin_rcvd = None;
      rcv_buffered = 0;
      consume_rate = None;
      consume_timer = no_timer;
      last_advertised = config.rwnd;
      persist_timer = no_timer;
      persist_backoff = 0;
      segs_since_ack = 0;
      quickack = 16;
      delack_timer = no_timer;
      pending_ece = false;
      ts_to_echo = 0;
      ts_echo_armed = false;
      ecn_reacted_at = 0;
      karn_timed_seq = -1;
      karn_sent_at = 0;
      time_wait_timer = no_timer;
      recv_cb = (fun _ -> ());
      established_cb = dummy;
      closed_cb = dummy;
      established_fired = false;
      closed_fired = false;
      tx_cpu = None;
      rx_cpu = None;
      s_bytes_sent = 0;
      s_bytes_delivered = 0;
      s_segments_out = 0;
      s_acks_out = 0;
      s_retransmits = 0;
      s_fast_retransmits = 0;
      s_timeouts = 0;
      s_rtt_samples = 0;
      trace = (match driver with Native -> Telemetry.Trace.nil | Cm_driven cm -> Cm.trace cm);
    }
  in
  t.rto_timer <- Timer.create engine ~callback:(fun () -> on_rto t);
  t.delack_timer <-
    Timer.create engine ~callback:(fun () -> if t.state <> Closed then send_pure_ack t);
  Host.connect_demux host in_flow (fun pkt -> on_packet t pkt);
  (match t.cc with
  | Cc_cm cc ->
      let fid = Cm.open_flow cc.cm out_flow in
      cc.fid <- Some fid;
      Cm.register_send cc.cm fid (fun fid -> cm_grant_callback t cc fid)
  | Cc_native _ -> ());
  t

let connect host ~dst ?(driver = Native) ?(config = default_config) () =
  let local = Addr.endpoint ~host:(Host.id host) ~port:(Host.alloc_port host) in
  let t = make_conn host ~local ~remote:dst ~driver ~config ~initial_state:Syn_sent in
  t.s_segments_out <- t.s_segments_out + 1;
  transmit t (build_segment t ~seq:iss ~len:0 ~syn:true ~fin:false ~with_ack:false);
  t.snd_nxt <- iss + 1;
  arm_rto t;
  t

let listen host ~port ?(driver = Native) ?(config = default_config) ~on_accept () =
  let handler pkt =
    match pkt.Packet.payload with
    | Segment.Tcp_seg seg when Segment.syn seg && not (Segment.ack seg) ->
        let remote = pkt.Packet.flow.Addr.src in
        let local = Addr.endpoint ~host:(Host.id host) ~port in
        let t = make_conn host ~local ~remote ~driver ~config ~initial_state:Syn_received in
        t.rcv_nxt <- seg.Segment.seq + 1;
        t.ts_to_echo <- seg.Segment.ts_val;
        on_accept t;
        t.s_segments_out <- t.s_segments_out + 1;
        transmit t (build_segment t ~seq:iss ~len:0 ~syn:true ~fin:false ~with_ack:true);
        t.snd_nxt <- iss + 1;
        arm_rto t
    | _ -> ()
  in
  Host.bind host Addr.Tcp ~port handler;
  { l_host = host; l_port = port }

(* ------------------------------------------------------------------ *)
(* Application interface *)

let send t n =
  if n <= 0 then invalid_arg "Conn.send: byte count must be positive";
  if t.fin_queued then invalid_arg "Conn.send: connection closing";
  t.snd_limit <- t.snd_limit + n;
  tcp_output t

let close t =
  if not t.fin_queued then begin
    t.fin_queued <- true;
    match t.state with
    | Closed -> become_closed t
    | Syn_sent | Syn_received ->
        (* queued data and the FIN go out once the handshake completes *)
        ()
    | _ -> tcp_output t
  end

let on_receive t cb = t.recv_cb <- cb

let set_consume_rate t rate =
  (match rate with
  | Some r when r < 0. -> invalid_arg "Conn.set_consume_rate: negative rate"
  | _ -> ());
  t.consume_rate <- rate;
  match rate with
  | Some _ ->
      if not (Timer.is_running t.consume_timer) then begin
        if t.consume_timer == no_timer then
          t.consume_timer <- Timer.create t.engine ~callback:(fun () -> consume_tick t);
        Timer.start_periodic t.consume_timer (Time.ms 10)
      end
  | None ->
      Timer.stop t.consume_timer;
      (* hand any buffered data to the app immediately *)
      if t.rcv_buffered > 0 then begin
        let n = t.rcv_buffered in
        t.rcv_buffered <- 0;
        t.s_bytes_delivered <- t.s_bytes_delivered + n;
        t.recv_cb n
      end

let receive_buffered t = t.rcv_buffered
let on_established t cb =
  t.established_cb <- cb;
  if t.established_fired then cb ()

let on_closed t cb =
  t.closed_cb <- cb;
  if t.closed_fired then cb ()

let state t = t.state

let stats t =
  {
    bytes_sent = t.s_bytes_sent;
    bytes_acked = Stdlib.max 0 (Stdlib.min t.snd_una t.snd_limit - data_start);
    bytes_delivered = t.s_bytes_delivered;
    segments_out = t.s_segments_out;
    acks_out = t.s_acks_out;
    retransmits = t.s_retransmits;
    fast_retransmits = t.s_fast_retransmits;
    timeouts = t.s_timeouts;
    rtt_samples = t.s_rtt_samples;
  }

let srtt t = Rto.srtt t.rto_est

let cwnd t =
  match t.cc with
  | Cc_native cc -> cc.cwnd
  | Cc_cm cc -> (
      match cc.fid with
      | Some fid -> (Cm.query cc.cm fid).Cm.Cm_types.cwnd
      | None -> 0)

let bytes_unacked t = flight_size t
let local t = t.local
let remote t = t.remote

let cm_flow t =
  match t.cc with Cc_cm cc -> cc.fid | Cc_native _ -> None
