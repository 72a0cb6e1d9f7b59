open Cm_util
open Eventsim

type Netsim.Packet.payload += Data of { seq : int; bytes : int; ts : Time.t }
type Netsim.Packet.payload += Ack of { max_seq : int; count : int; bytes : int; ts_echo : Time.t }

module Receiver = struct
  type t = {
    engine : Engine.t;
    send_ack : max_seq:int -> count:int -> bytes:int -> ts_echo:Time.t -> unit;
    batch : (int * Time.span) option;
    timer : Timer.t option ref;
    mutable pending_count : int;
    mutable pending_bytes : int;
    mutable pending_max_seq : int;
    mutable pending_ts : Time.t;
    mutable total_packets : int;
    mutable total_bytes : int;
  }

  let flush t =
    if t.pending_count > 0 then begin
      t.send_ack ~max_seq:t.pending_max_seq ~count:t.pending_count ~bytes:t.pending_bytes
        ~ts_echo:t.pending_ts;
      t.pending_count <- 0;
      t.pending_bytes <- 0;
      match !(t.timer) with Some timer -> Timer.stop timer | None -> ()
    end

  let create engine ~send_ack ?batch () =
    let t =
      {
        engine;
        send_ack;
        batch;
        timer = ref None;
        pending_count = 0;
        pending_bytes = 0;
        pending_max_seq = -1;
        pending_ts = 0;
        total_packets = 0;
        total_bytes = 0;
      }
    in
    (match batch with
    | Some _ -> t.timer := Some (Timer.create engine ~callback:(fun () -> flush t))
    | None -> ());
    t

  let on_data t ~seq ~bytes ~ts =
    t.total_packets <- t.total_packets + 1;
    t.total_bytes <- t.total_bytes + bytes;
    t.pending_count <- t.pending_count + 1;
    t.pending_bytes <- t.pending_bytes + bytes;
    if seq > t.pending_max_seq then t.pending_max_seq <- seq;
    t.pending_ts <- ts;
    match t.batch with
    | None -> flush t
    | Some (max_count, max_wait) ->
        if t.pending_count >= max_count then flush t
        else begin
          match !(t.timer) with
          | Some timer when not (Timer.is_running timer) -> Timer.start timer max_wait
          | _ -> ()
        end

  let packets_received t = t.total_packets
  let bytes_received t = t.total_bytes
end

module Sender = struct
  (* solicitation backoff: first solicit after this much starvation,
     doubling up to the cap *)
  let starve_floor = Time.ms 200
  let starve_cap = Time.sec 3.2

  type t = {
    engine : Engine.t;
    on_report :
      nsent:int -> nrecd:int -> loss:Cm.Cm_types.loss_mode -> rtt:Time.span option -> unit;
    timeout_floor : Time.span;
    on_starve : (unit -> unit) option;
    (* Unresolved transmissions.  Feedback resolves every seq up to its
       [max_seq] at once, so the resolvable ones always form the
       contiguous range [lowest_unresolved, next_seq): [outstanding] holds
       their byte counts in seq order (empty when next_seq <=
       lowest_unresolved) and a resolution pops from its head.  Feedback
       whose max_seq reaches next_seq or beyond lifts lowest_unresolved
       past seqs not yet sent; those seqs, once sent, can only be
       resolved by a loss declaration and are counted in [stranded_*]. *)
    outstanding : int Byte_queue.t;
    mutable stranded_pkts : int;
    mutable stranded_bytes : int;
    mutable next_seq : int;
    mutable lowest_unresolved : int;
    mutable recover_seq : int; (* gate: one Transient per window *)
    mutable srtt : float;
    mutable srtt_valid : bool;
    mutable last_feedback : Time.t;
    mutable solicit_backoff : Time.span;
    mutable next_solicit_at : Time.t;
    mutable solicits : int;
    mutable timer : Timer.t option;
  }

  let srtt t = if t.srtt_valid then Some (int_of_float t.srtt) else None

  let observe_rtt t sample =
    if sample > 0 then begin
      let s = float_of_int sample in
      if t.srtt_valid then t.srtt <- (0.875 *. t.srtt) +. (0.125 *. s)
      else begin
        t.srtt <- s;
        t.srtt_valid <- true
      end
    end

  (* resolve every outstanding packet with seq <= upto; the caller reads
     what was resolved off the ring's length and bytes *)
  let resolve_upto t upto =
    if upto >= t.lowest_unresolved then begin
      let n = Int.min (upto - t.lowest_unresolved + 1) (Byte_queue.length t.outstanding) in
      for _ = 1 to n do
        ignore (Byte_queue.take t.outstanding : int)
      done;
      t.lowest_unresolved <- upto + 1
    end

  let outstanding_packets t = Byte_queue.length t.outstanding + t.stranded_pkts
  let outstanding_bytes t = Byte_queue.bytes t.outstanding + t.stranded_bytes

  (* Declare everything in flight lost: the shared core of the silence
     timeout and of an explicit resync (receiver restarted, so feedback
     for the old packets will never come). *)
  let declare_outstanding_lost t =
    let now = Engine.now t.engine in
    if outstanding_packets t > 0 then begin
      let bytes = outstanding_bytes t in
      Byte_queue.clear t.outstanding;
      t.stranded_pkts <- 0;
      t.stranded_bytes <- 0;
      t.lowest_unresolved <- t.next_seq;
      t.recover_seq <- t.next_seq;
      t.last_feedback <- now;
      t.on_report ~nsent:bytes ~nrecd:0 ~loss:Cm.Cm_types.Persistent ~rtt:None
    end

  let maintenance t () =
    if outstanding_packets t > 0 then begin
      let now = Engine.now t.engine in
      (* Feedback starvation: before giving up on the outstanding data,
         solicit the receiver — its feedback may be the only thing being
         lost.  Exponential backoff so a dead feedback path costs a
         handful of control packets, not a stream; any accepted feedback
         resets the backoff to the floor. *)
      (match t.on_starve with
      | Some solicit ->
          if
            Time.diff now t.last_feedback >= t.solicit_backoff
            && now >= t.next_solicit_at
          then begin
            t.solicits <- t.solicits + 1;
            t.next_solicit_at <- Time.add now t.solicit_backoff;
            t.solicit_backoff <- Int.min (2 * t.solicit_backoff) starve_cap;
            solicit ()
          end
      | None -> ());
      (* nothing heard for a long time while data is outstanding: persistent
         congestion (the UDP analogue of a TCP timeout) *)
      let limit =
        Int.max t.timeout_floor
          (if t.srtt_valid then 2 * int_of_float t.srtt else t.timeout_floor)
      in
      if Time.diff now t.last_feedback > limit then declare_outstanding_lost t
    end;
    (* nothing in flight: every later tick is a no-op until [on_transmit]
       wakes the clock *)
    if outstanding_packets t = 0 then
      match t.timer with Some timer -> Timer.park timer | None -> ()

  let create engine ~on_report ?(timeout_floor = Time.ms 500) ?on_starve () =
    let t =
      {
        engine;
        on_report;
        timeout_floor;
        on_starve;
        outstanding = Byte_queue.create ~dummy:0 ();
        stranded_pkts = 0;
        stranded_bytes = 0;
        next_seq = 0;
        lowest_unresolved = 0;
        recover_seq = 0;
        srtt = 0.;
        srtt_valid = false;
        last_feedback = Engine.now engine;
        solicit_backoff = starve_floor;
        next_solicit_at = 0;
        solicits = 0;
        timer = None;
      }
    in
    let timer = Timer.create engine ~callback:(maintenance t) in
    Timer.start_periodic timer (Time.ms 100);
    t.timer <- Some timer;
    t

  let next_seq t = t.next_seq

  let on_transmit t ~bytes =
    (match t.timer with Some timer -> Timer.wake timer | None -> ());
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    if seq >= t.lowest_unresolved then Byte_queue.push t.outstanding ~size:bytes bytes
    else begin
      t.stranded_pkts <- t.stranded_pkts + 1;
      t.stranded_bytes <- t.stranded_bytes + bytes
    end;
    seq

  let on_ack t ~max_seq ~count ~bytes ~ts_echo =
    t.last_feedback <- Engine.now t.engine;
    t.solicit_backoff <- starve_floor;
    t.next_solicit_at <- 0;
    let rtt =
      if ts_echo > 0 then begin
        let sample = Time.diff (Engine.now t.engine) ts_echo in
        observe_rtt t sample;
        if sample > 0 then Some sample else None
      end
      else None
    in
    let pkts_before = Byte_queue.length t.outstanding in
    let bytes_before = Byte_queue.bytes t.outstanding in
    resolve_upto t max_seq;
    let resolved_pkts = pkts_before - Byte_queue.length t.outstanding in
    let resolved_bytes = bytes_before - Byte_queue.bytes t.outstanding in
    if resolved_pkts = 0 then begin
      (* feedback carried no new resolution; still deliver the rtt *)
      match rtt with
      | Some _ -> t.on_report ~nsent:0 ~nrecd:0 ~loss:Cm.Cm_types.No_loss ~rtt
      | None -> ()
    end
    else begin
      let recd_bytes = Int.min bytes resolved_bytes in
      let lost_pkts = resolved_pkts - Int.min count resolved_pkts in
      let loss =
        if lost_pkts > 0 && max_seq >= t.recover_seq then begin
          t.recover_seq <- t.next_seq;
          Cm.Cm_types.Transient
        end
        else Cm.Cm_types.No_loss
      in
      let nrecd = if lost_pkts > 0 then recd_bytes else resolved_bytes in
      t.on_report ~nsent:resolved_bytes ~nrecd ~loss ~rtt
    end

  let resync t = declare_outstanding_lost t
  let solicits t = t.solicits

  let shutdown t =
    match t.timer with
    | Some timer ->
        Timer.stop timer;
        t.timer <- None
    | None -> ()
end
