open Cm_util
open Eventsim

(* The queueing discipline lives in the link's unit, so the per-packet
   enqueue and dequeue are direct calls. *)
module Queue_disc = struct
  type verdict = Enqueued | Dropped

  type red = {
    ecn : bool;
    min_th : int;
    max_th : int;
    red_limit : int;
    rng : Rng.t;
    mutable avg : float;
    (* packets since the last mark/drop, for the RED 1/(1 - count*pb)
       spreading of marks *)
    mutable count : int;
  }

  type kind =
    | Droptail of { limit_pkts : int; limit_bytes : int }
    | Red of red
    (* [seen] data packets offered so far; those whose 1-based ordinal is
       [listed] are dropped *)
    | Drop_listed of { l_limit : int; listed : int list; mutable seen : int }

  type t = { q : Packet.t Byte_queue.t; mutable drops : int; mutable marks : int; kind : kind }

  let make kind = { q = Byte_queue.create ~dummy:Packet.dummy (); drops = 0; marks = 0; kind }

  let check_limit ~what n =
    if n <= 0 then
      invalid_arg (Printf.sprintf "Queue_disc.%s: limit_pkts must be positive (got %d)" what n)

  let droptail ?limit_bytes ~limit_pkts () =
    check_limit ~what:"droptail" limit_pkts;
    (match limit_bytes with
    | Some b when b <= 0 ->
        invalid_arg
          (Printf.sprintf
             "Queue_disc.droptail: limit_bytes must be positive (got %d; a non-positive byte limit \
              would silently drop every packet)"
             b)
    | _ -> ());
    (* the option is resolved once here, not matched per packet *)
    let limit_bytes = match limit_bytes with Some b -> b | None -> max_int in
    make (Droptail { limit_pkts; limit_bytes })

  let red ?(ecn = false) ~min_th ~max_th ~limit_pkts ~rng () =
    if min_th <= 0 || max_th <= min_th || limit_pkts < max_th then
      invalid_arg "Queue_disc.red: need 0 < min_th < max_th <= limit_pkts";
    make (Red { ecn; min_th; max_th; red_limit = limit_pkts; rng; avg = 0.; count = -1 })

  let drop_listed ~drops ~limit_pkts () =
    check_limit ~what:"drop_listed" limit_pkts;
    make (Drop_listed { l_limit = limit_pkts; listed = drops; seen = 0 })

  (* the standard RED EWMA weight and top of the marking ramp *)
  let wq = 0.002
  let max_p = 0.1

  (* A congestion signal: with ECN on, an ECN-capable packet is marked and
     still joins the queue; any other packet is dropped. *)
  let note_congestion t r pkt =
    r.ecn && Packet.ecn_capable pkt
    && begin
         Packet.mark_ce pkt;
         t.marks <- t.marks + 1;
         true
       end

  let red_admit t r pkt =
    let len = Byte_queue.length t.q in
    r.avg <- ((1. -. wq) *. r.avg) +. (wq *. float_of_int len);
    let min_th = float_of_int r.min_th in
    if len >= r.red_limit || r.avg < min_th then begin
      r.count <- -1;
      len < r.red_limit
    end
    else if r.avg >= float_of_int r.max_th then begin
      r.count <- -1;
      note_congestion t r pkt
    end
    else begin
      r.count <- r.count + 1;
      let pb = max_p *. (r.avg -. min_th) /. float_of_int (r.max_th - r.min_th) in
      let denom = 1. -. (float_of_int r.count *. pb) in
      let pa = if denom <= 0. then 1. else pb /. denom in
      (not (Rng.bernoulli r.rng pa))
      || begin
           r.count <- -1;
           note_congestion t r pkt
         end
    end

  (* Whether the packet joins the queue; a refused packet is a drop. *)
  let enqueue t pkt =
    let len = Byte_queue.length t.q in
    let admit =
      match t.kind with
      | Droptail { limit_pkts; limit_bytes } ->
          len < limit_pkts && Byte_queue.bytes t.q + pkt.Packet.size <= limit_bytes
      | Red r -> red_admit t r pkt
      | Drop_listed l ->
          (* the ordinals count data packets only (payload over 500 B) *)
          let data = Packet.payload_bytes pkt > 500 in
          if data then l.seen <- l.seen + 1;
          (not (data && List.mem l.seen l.listed)) && len < l.l_limit
    in
    if admit then begin
      Byte_queue.push t.q ~size:pkt.Packet.size pkt;
      Enqueued
    end
    else begin
      t.drops <- t.drops + 1;
      Dropped
    end

  (* [Packet.dummy] for empty rather than an option: the link dequeues
     every packet it sends *)
  let dequeue t = if Byte_queue.is_empty t.q then Packet.dummy else Byte_queue.take t.q

  let len t = Byte_queue.length t.q
  let bytes t = Byte_queue.bytes t.q
  let drops t = t.drops
  let marks t = t.marks
end

type drop_why = Channel | Queue | Down

type stats = {
  enqueued_pkts : int;
  delivered_pkts : int;
  delivered_bytes : int;
  queue_drops : int;
  channel_drops : int;
  down_drops : int;
  ecn_marks : int;
}

type t = {
  engine : Engine.t;
  mutable bandwidth_bps : float;
  delay : Time.span;
  qdisc : Queue_disc.t;
  loss_rate : float;
  mutable loss_model : (unit -> bool) option;
  rng : Rng.t option;
  sink : Packet.t -> unit;
  mutable up : bool;
  mutable extra_delay : Time.span;
  mutable jitter : Time.span;
  (* telemetry: Trace.nil unless attach_telemetry installed a live sink,
     so the transmit path pays one boolean test per drop *)
  mutable trace : Telemetry.Trace.t;
  mutable trace_name : string;
  mutable enqueued_pkts : int;
  mutable delivered_pkts : int;
  mutable delivered_bytes : int;
  mutable channel_drops : int;
  mutable down_drops : int;
  (* transmit-path caches: bulk traffic is dominated by one packet size, so
     the serialization time is memoized instead of recomputed through float
     division for every packet *)
  mutable tx_cache_size : int;
  mutable tx_cache_time : Time.span;
  (* The transmitter.  [(busy_until, tx_stamp)] keys the end of the last
     transmission, whether or not an event is queued there: the link is
     serializing until that key has had its turn.  A packet goes on the
     wire when its transmission starts — it joins [in_flight] and its
     delivery is posted at once — and the end of transmission (the drain,
     [drain_fn]) is queued only when a packet waits behind it.  One
     pre-allocated closure pair drives every transmission; the
     propagation FIFO is a ring, so it links no packet to the next. *)
  mutable busy_until : Time.t;
  mutable tx_stamp : int;
  mutable drain_queued : bool;
  in_flight : Packet.t Byte_queue.t;
  (* stamp reserved by the last link-down: every delivery posted before
     it carries a smaller stamp, and its packet died in the outage *)
  mutable dead_below : int;
  mutable drain_fn : unit -> unit;
  mutable deliver_fn : unit -> unit;
}

let tx_time t (pkt : Packet.t) =
  if pkt.size = t.tx_cache_size then t.tx_cache_time
  else begin
    let tt = Time.sec (float_of_int (pkt.size * 8) /. t.bandwidth_bps) in
    t.tx_cache_size <- pkt.size;
    t.tx_cache_time <- tt;
    tt
  end

let deliver t (pkt : Packet.t) =
  t.delivered_pkts <- t.delivered_pkts + 1;
  t.delivered_bytes <- t.delivered_bytes + pkt.Packet.size;
  t.sink pkt

let drop_cause = function Channel -> "channel" | Queue -> "queue" | Down -> "down"

(* every drop funnel: a trace event when telemetry is attached; cause
   counters stay with each call site *)
let note_drop t why (pkt : Packet.t) =
  if Telemetry.Trace.on t.trace then
    Telemetry.Trace.instant t.trace ~cat:"net" "link.drop"
      [
        ("link", Telemetry.Trace.Str t.trace_name);
        ("cause", Telemetry.Trace.Str (drop_cause why));
        ("size", Telemetry.Trace.Int pkt.Packet.size);
        ("packet", Telemetry.Trace.Int pkt.Packet.id);
      ]

let drop_down t pkt =
  t.down_drops <- t.down_drops + 1;
  note_drop t Down pkt

(* propagation delay of a packet whose transmission starts now; the
   jitter term makes delivery *times* vary but content order stays FIFO
   (the in-flight queue pops oldest-first whatever the event times) *)
let prop_delay t =
  let base = t.delay + t.extra_delay in
  match (t.jitter, t.rng) with
  | j, Some rng when j > 0 -> base + Rng.uniform_span rng j
  | _ -> base

(* the end of the last transmission has not had its turn yet *)
let serializing t =
  let now = Engine.now t.engine in
  now < t.busy_until || (now = t.busy_until && Engine.current_stamp t.engine < t.tx_stamp)

let queue_drain t =
  if not t.drain_queued then begin
    t.drain_queued <- true;
    Engine.post_stamped t.engine t.busy_until ~stamp:t.tx_stamp t.drain_fn
  end

let start_transmission t =
  if t.up then begin
    let pkt = Queue_disc.dequeue t.qdisc in
    if pkt != Packet.dummy then begin
      t.busy_until <- Engine.now t.engine + tx_time t pkt;
      t.tx_stamp <- Engine.reserve_stamp t.engine;
      (* propagation and the delivery's FIFO stamp are decided now *)
      let stamp = Engine.reserve_stamp t.engine in
      Byte_queue.push t.in_flight ~size:pkt.Packet.size pkt;
      Engine.post_stamped t.engine (t.busy_until + prop_delay t) ~stamp t.deliver_fn;
      if Queue_disc.len t.qdisc > 0 then queue_drain t
    end
  end

let create engine ~bandwidth_bps ~delay ?qdisc ?(loss_rate = 0.) ?rng ~sink () =
  if Float.is_nan bandwidth_bps || bandwidth_bps <= 0. then
    invalid_arg
      (Printf.sprintf "Link.create: bandwidth must be positive (got %g bps)" bandwidth_bps);
  if delay < 0 then
    invalid_arg (Printf.sprintf "Link.create: negative delay (%d ns)" delay);
  if Float.is_nan loss_rate || loss_rate < 0. || loss_rate > 1. then
    invalid_arg "Link.create: loss_rate: probability must be in [0,1]";
  if loss_rate > 0. && rng = None then invalid_arg "Link.create: loss_rate needs an rng";
  let qdisc = match qdisc with Some q -> q | None -> Queue_disc.droptail ~limit_pkts:100 () in
  let t =
    {
      engine;
      bandwidth_bps;
      delay;
      qdisc;
      loss_rate;
      loss_model = None;
      rng;
      sink;
      up = true;
      extra_delay = 0;
      jitter = 0;
      trace = Telemetry.Trace.nil;
      trace_name = "link";
      enqueued_pkts = 0;
      delivered_pkts = 0;
      delivered_bytes = 0;
      channel_drops = 0;
      down_drops = 0;
      tx_cache_size = -1;
      tx_cache_time = 0;
      busy_until = min_int;
      tx_stamp = -1;
      drain_queued = false;
      in_flight = Byte_queue.create ~dummy:Packet.dummy ();
      dead_below = -1;
      drain_fn = ignore;
      deliver_fn = ignore;
    }
  in
  t.deliver_fn <-
    Engine.prof_tag engine ~cat:"net"
    @@ (fun () ->
      (* a delivery posted before the last link-down pops nothing *)
      if Engine.current_stamp engine > t.dead_below then deliver t (Byte_queue.take t.in_flight));
  t.drain_fn <-
    Engine.prof_tag engine ~cat:"net"
    @@ (fun () ->
      t.drain_queued <- false;
      start_transmission t);
  t

let send t pkt =
  if not t.up then drop_down t pkt
  else begin
    let lost =
      match t.loss_model with
      | Some model -> model ()
      | None -> (
          t.loss_rate > 0.
          && match t.rng with Some rng -> Rng.bernoulli rng t.loss_rate | None -> false)
    in
    if lost then begin
      t.channel_drops <- t.channel_drops + 1;
      note_drop t Channel pkt
    end
    else begin
      match Queue_disc.enqueue t.qdisc pkt with
      | Queue_disc.Dropped -> note_drop t Queue pkt
      | Queue_disc.Enqueued ->
          t.enqueued_pkts <- t.enqueued_pkts + 1;
          if serializing t then queue_drain t else start_transmission t
    end
  end

let set_bandwidth t bw =
  if Float.is_nan bw || bw <= 0. then
    invalid_arg (Printf.sprintf "Link.set_bandwidth: bandwidth must be positive (got %g bps)" bw);
  t.bandwidth_bps <- bw;
  t.tx_cache_size <- -1

let bandwidth t = t.bandwidth_bps

let set_loss_model t m = t.loss_model <- m

let up t = t.up

let take_down t =
  if t.up then begin
    t.up <- false;
    (* the packet being serialized (the last one on the wire) dies
       first, then those ahead of it *)
    if serializing t && not (Byte_queue.is_empty t.in_flight) then
      drop_down t (Byte_queue.take_last t.in_flight);
    (* everything in propagation is lost; the deliveries already posted
       carry stamps below this one and pop nothing when they surface *)
    t.dead_below <- Engine.reserve_stamp t.engine;
    Byte_queue.iter (fun pkt -> drop_down t pkt) t.in_flight;
    Byte_queue.clear t.in_flight
    (* queued packets stay queued: a router buffer survives an interface
       outage and drains when the link returns *)
  end

let bring_up t =
  if not t.up then begin
    t.up <- true;
    (* while serializing, a queued packet has had the drain queued *)
    if not (serializing t) then start_transmission t
  end

let set_extra_delay t d =
  if d < 0 then invalid_arg "Link.set_extra_delay: negative delay";
  t.extra_delay <- d

let set_jitter t j =
  if j < 0 then invalid_arg "Link.set_jitter: negative jitter";
  if j > 0 && t.rng = None then invalid_arg "Link.set_jitter: jitter needs an rng";
  t.jitter <- j

let attach_telemetry t ~name tel =
  t.trace <- Telemetry.trace tel;
  t.trace_name <- name;
  let g suffix read = Telemetry.gauge tel (Printf.sprintf "link.%s.%s" name suffix) read in
  g "qlen" (fun () -> float_of_int (Queue_disc.len t.qdisc));
  g "qbytes" (fun () -> float_of_int (Queue_disc.bytes t.qdisc));
  g "delivered_pkts" (fun () -> float_of_int t.delivered_pkts);
  g "drops_queue" (fun () -> float_of_int (Queue_disc.drops t.qdisc));
  g "drops_channel" (fun () -> float_of_int t.channel_drops);
  g "drops_down" (fun () -> float_of_int t.down_drops);
  g "ecn_marks" (fun () -> float_of_int (Queue_disc.marks t.qdisc));
  g "bandwidth_bps" (fun () -> t.bandwidth_bps)

let stats t =
  {
    enqueued_pkts = t.enqueued_pkts;
    delivered_pkts = t.delivered_pkts;
    delivered_bytes = t.delivered_bytes;
    queue_drops = Queue_disc.drops t.qdisc;
    channel_drops = t.channel_drops;
    down_drops = t.down_drops;
    ecn_marks = Queue_disc.marks t.qdisc;
  }

let busy t = serializing t
