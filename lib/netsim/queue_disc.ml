open Cm_util

type verdict = Enqueued | Dropped

type t = {
  name : string;
  enqueue : Packet.t -> verdict;
  dequeue : unit -> Packet.t;
  len : unit -> int;
  bytes : unit -> int;
  drops : unit -> int;
  marks : unit -> int;
}

(* [Packet.dummy] for empty rather than an option: the link dequeues
   every packet it sends *)
let dequeue q = if Byte_queue.is_empty q then Packet.dummy else Byte_queue.take q

let droptail ?limit_bytes ~limit_pkts () =
  if limit_pkts <= 0 then
    invalid_arg
      (Printf.sprintf "Queue_disc.droptail: limit_pkts must be positive (got %d)" limit_pkts);
  (match limit_bytes with
  | Some b when b <= 0 ->
      invalid_arg
        (Printf.sprintf
           "Queue_disc.droptail: limit_bytes must be positive (got %d; a non-positive byte limit \
            would silently drop every packet)"
           b)
  | _ -> ());
  let q = Byte_queue.create ~dummy:Packet.dummy () in
  let drops = ref 0 in
  (* the option is resolved once here, not matched per packet *)
  let limit_bytes = match limit_bytes with Some b -> b | None -> max_int in
  let over_limit pkt =
    Byte_queue.length q >= limit_pkts || Byte_queue.bytes q + pkt.Packet.size > limit_bytes
  in
  let enqueue pkt =
    if over_limit pkt then begin
      incr drops;
      Dropped
    end
    else begin
      Byte_queue.push q ~size:pkt.Packet.size pkt;
      Enqueued
    end
  in
  {
    name = "droptail";
    enqueue;
    dequeue = (fun () -> dequeue q);
    len = (fun () -> Byte_queue.length q);
    bytes = (fun () -> Byte_queue.bytes q);
    drops = (fun () -> !drops);
    marks = (fun () -> 0);
  }

(* the standard RED EWMA weight and top of the marking ramp *)
let wq = 0.002
let max_p = 0.1

let red ?(ecn = false) ~min_th ~max_th ~limit_pkts ~rng () =
  if min_th <= 0 || max_th <= min_th || limit_pkts < max_th then
    invalid_arg "Queue_disc.red: need 0 < min_th < max_th <= limit_pkts";
  let q = Byte_queue.create ~dummy:Packet.dummy () in
  let drops = ref 0 and marks = ref 0 in
  let avg = ref 0. in
  (* per-packet float conversions hoisted out of the enqueue busy-loop;
     the arithmetic below is kept operation-for-operation identical to the
     unhoisted form so simulated traces are unchanged *)
  let one_minus_wq = 1. -. wq in
  let min_th_f = float_of_int min_th in
  let max_th_f = float_of_int max_th in
  let range_f = float_of_int (max_th - min_th) in
  (* count of packets since last mark/drop, for the RED 1/(1 - count*pb)
     spreading of marks *)
  let count = ref (-1) in
  let note_congestion pkt =
    if ecn && Packet.ecn_capable pkt then begin
      Packet.mark_ce pkt;
      incr marks;
      true (* still enqueue *)
    end
    else begin
      incr drops;
      false
    end
  in
  let enqueue pkt =
    avg := (one_minus_wq *. !avg) +. (wq *. float_of_int (Byte_queue.length q));
    let admit =
      if Byte_queue.length q >= limit_pkts then begin
        incr drops;
        count := -1;
        false
      end
      else if !avg < min_th_f then begin
        count := -1;
        true
      end
      else if !avg >= max_th_f then begin
        count := -1;
        note_congestion pkt
      end
      else begin
        incr count;
        let pb = max_p *. (!avg -. min_th_f) /. range_f in
        let pa =
          let denom = 1. -. (float_of_int !count *. pb) in
          if denom <= 0. then 1. else pb /. denom
        in
        if Rng.bernoulli rng pa then begin
          count := -1;
          note_congestion pkt
        end
        else true
      end
    in
    if admit then begin
      Byte_queue.push q ~size:pkt.Packet.size pkt;
      Enqueued
    end
    else Dropped
  in
  {
    name = (if ecn then "red+ecn" else "red");
    enqueue;
    dequeue = (fun () -> dequeue q);
    len = (fun () -> Byte_queue.length q);
    bytes = (fun () -> Byte_queue.bytes q);
    drops = (fun () -> !drops);
    marks = (fun () -> !marks);
  }
