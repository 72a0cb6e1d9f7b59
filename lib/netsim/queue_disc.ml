open Cm_util

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
  if n <= 0 then invalid_arg (Printf.sprintf "Queue_disc.%s: limit_pkts must be positive (got %d)" what n)

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
