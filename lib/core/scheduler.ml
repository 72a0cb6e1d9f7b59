(* Scheduler keys are dense small non-negative ints: each macroflow hands
   its scheduler the flow's macroflow-local member index (recycled on
   detach), not the CM-wide flow id.  Both schedulers below exploit that
   by replacing every per-flow hash probe with a direct array index — the
   state for one macroflow's members is a few contiguous, cache-resident
   arrays however many flows the CM serves overall. *)

(* Every per-member array below starts at one slot and doubles as ids
   arrive: most macroflows (one per destination host, kept after their
   last flow closes) never hold more than one or two members at once. *)

(* [arr] grown to at least [n > length arr] slots *)
let grow arr n fill =
  let cap = Array.length arr in
  let bigger = Array.make (Int.max n (2 * cap)) fill in
  Array.blit arr 0 bigger 0 cap;
  bigger

(* ---- round robin ------------------------------------------------------ *)

(* The active-set ring (ids that currently have >= 1 pending request, as
   a growable circular buffer with no per-push allocation) and the
   per-id pending counts and epochs, in one record.  Ring entries pack
   (epoch, id) so an id recycled after [remove] cannot inherit a stale
   entry's turn: the stale entry's epoch no longer matches and it is
   skipped.  Every operation is O(1) (dequeue amortized: a removed id
   leaves at most one stale ring entry, skipped exactly once). *)
type rr = {
  mutable ring : int array;
  mutable head : int;
  mutable len : int;
  mutable counts : int array;
  mutable epochs : int array;
  mutable rr_total : int;
}

let id_bits = 24
let id_mask = (1 lsl id_bits) - 1

let ring_push r v =
  let cap = Array.length r.ring in
  if r.len = cap then begin
    let ring = Array.make (2 * cap) 0 in
    for i = 0 to r.len - 1 do
      ring.(i) <- r.ring.((r.head + i) land (cap - 1))
    done;
    r.ring <- ring;
    r.head <- 0
  end;
  r.ring.((r.head + r.len) land (Array.length r.ring - 1)) <- v;
  r.len <- r.len + 1

let ring_pop r =
  let v = r.ring.(r.head) in
  r.head <- (r.head + 1) land (Array.length r.ring - 1);
  r.len <- r.len - 1;
  v

let rr_enqueue r id =
  if id < 0 || id > id_mask then invalid_arg "Scheduler.round_robin: id out of range";
  if id >= Array.length r.counts then begin
    r.counts <- grow r.counts (id + 1) 0;
    r.epochs <- grow r.epochs (id + 1) 0
  end;
  let c = r.counts.(id) in
  r.counts.(id) <- c + 1;
  r.rr_total <- r.rr_total + 1;
  if c = 0 then ring_push r ((r.epochs.(id) lsl id_bits) lor id)

let rec rr_dequeue r =
  if r.len = 0 then -1
  else begin
    let packed = ring_pop r in
    let id = packed land id_mask in
    let c = r.counts.(id) in
    if packed asr id_bits <> r.epochs.(id) || c = 0 then rr_dequeue r (* stale after remove *)
    else begin
      r.counts.(id) <- c - 1;
      r.rr_total <- r.rr_total - 1;
      if c > 1 then ring_push r packed;
      id
    end
  end

let rr_remove r id =
  if id >= 0 && id < Array.length r.counts then begin
    r.rr_total <- r.rr_total - r.counts.(id);
    r.counts.(id) <- 0;
    (* retire outstanding ring entries for this id *)
    r.epochs.(id) <- r.epochs.(id) + 1
  end

(* ---- weighted (stride) scheduling ------------------------------------- *)

module Q = Eventsim.Engine.Queue

(* A flow's state sits in flat arrays indexed by its id: its pending
   count, its queue id ([-1] while the id is not registered), and its tags
   — weight at [2id], pass at [2id+1] — in a float array, whose cells are
   unboxed, so writing a pass allocates nothing.  A registered id holds
   one queue id until [remove] releases it (a flow re-added reuses it) and
   is queued under [key pass] while backlogged, so dequeue is extract-min
   over backlogged flows: O(log n) however many flows are registered. *)
type stride = {
  mutable counts : int array;
  mutable qids : int array;
  mutable tags : float array;
  heap : int Q.t; (* value: the flow id *)
  mutable st_total : int;
  global : global;
}

(* the global pass: the pass of the last grant, in an all-float record,
   which stores it flat *)
and global = { mutable g_pass : float }

let stride_k = 1_000_000.

(* The queue key of a pass.  On [+0., max_float] the IEEE-754 bit pattern
   is strictly increasing, and this offset maps that range exactly onto
   OCaml's 63-bit ints, so keys order exactly as passes do; equal passes
   tie on the queue's FIFO sequence number.  Queued passes are never
   negative, -0. or NaN: they start at +0., grow by finite strides (see
   [set_weight]), and a rebase subtracts the global pass, which no queued
   pass is below. *)
let key pass = Int64.to_int (Int64.sub (Int64.bits_of_float pass) 0x3FF0_0000_0000_0000L)

(* Pass-rebase threshold.  Beyond ~2^52 float addition can no longer
   represent a small stride increment (pass +. stride == pass), silently
   starving heavy-weight flows; rebasing long before that — while the
   threshold still dwarfs any single stride — keeps every addition exact
   to well under one quantum.  10^12 grants at the default stride sit
   three decades below this, but a server-lifetime process gets there. *)
let rebase_threshold = 1e15

let st_register s id =
  if id < 0 then invalid_arg "Scheduler.weighted: id out of range";
  if id >= Array.length s.qids then begin
    s.counts <- grow s.counts (id + 1) 0;
    s.qids <- grow s.qids (id + 1) (-1);
    s.tags <- grow s.tags (2 * (id + 1)) 0.
  end;
  if s.qids.(id) < 0 then begin
    s.qids.(id) <- Q.alloc s.heap id;
    s.tags.(2 * id) <- 1.0;
    s.tags.((2 * id) + 1) <- s.global.g_pass
  end

(* Subtract the accumulated pass base from every tag, then re-key the
   queue: pop every backlogged flow and re-queue it under its new key in
   pop order.  The fresh sequence numbers follow the old order among
   equal passes, so rebasing is invisible to the grant sequence; it only
   keeps the floats small. *)
let rebase s =
  let base = s.global.g_pass in
  Array.iteri
    (fun id qid -> if qid >= 0 then s.tags.((2 * id) + 1) <- s.tags.((2 * id) + 1) -. base)
    s.qids;
  s.global.g_pass <- 0.;
  let queued = Array.init (Q.size s.heap) (fun _ -> Q.pop_min s.heap) in
  Array.iter
    (fun qid -> Q.reinsert s.heap qid ~time:(key s.tags.((2 * Q.value s.heap qid) + 1)))
    queued

let st_enqueue s id =
  st_register s id;
  let c = s.counts.(id) + 1 in
  s.counts.(id) <- c;
  s.st_total <- s.st_total + 1;
  if c = 1 then begin
    (* a newly backlogged flow re-enters at the current global pass so it
       cannot hoard credit accumulated while idle *)
    let pass = Float.max s.global.g_pass s.tags.((2 * id) + 1) in
    s.tags.((2 * id) + 1) <- pass;
    Q.reinsert s.heap s.qids.(id) ~time:(key pass)
  end

let st_dequeue s =
  if s.st_total = 0 then -1
  else begin
    let qid = Q.min_id s.heap in
    let id = Q.value s.heap qid in
    let pass = s.tags.((2 * id) + 1) in
    let c = s.counts.(id) - 1 in
    s.counts.(id) <- c;
    s.st_total <- s.st_total - 1;
    s.global.g_pass <- pass;
    let next = pass +. (stride_k /. s.tags.(2 * id)) in
    s.tags.((2 * id) + 1) <- next;
    if c > 0 then ignore (Q.update s.heap qid ~time:(key next)) else ignore (Q.remove s.heap qid);
    if s.global.g_pass > rebase_threshold then rebase s;
    id
  end

let st_remove s id =
  if id >= 0 && id < Array.length s.qids && s.qids.(id) >= 0 then begin
    let qid = s.qids.(id) in
    s.st_total <- s.st_total - s.counts.(id);
    s.counts.(id) <- 0;
    ignore (Q.remove s.heap qid);
    Q.release s.heap qid;
    s.qids.(id) <- -1
  end

let st_set_weight s id w =
  if not (Float.is_finite w && w > 0. && Float.is_finite (stride_k /. w)) then
    invalid_arg "Scheduler.weighted: weight must be positive and finite, with a finite stride";
  st_register s id;
  s.tags.(2 * id) <- w

(* ---- the closed variant ----------------------------------------------- *)

type t = Round_robin of rr | Stride of stride
type factory = unit -> t

let round_robin () =
  Round_robin
    {
      ring = Array.make 1 0;
      head = 0;
      len = 0;
      counts = Array.make 1 0;
      epochs = Array.make 1 0;
      rr_total = 0;
    }

let weighted () =
  Stride
    {
      counts = Array.make 1 0;
      qids = Array.make 1 (-1);
      tags = Array.make 2 0.;
      heap = Q.create ~slots:0 ~dummy:(-1) ();
      st_total = 0;
      global = { g_pass = 0. };
    }

let enqueue t id = match t with Round_robin r -> rr_enqueue r id | Stride s -> st_enqueue s id
let dequeue = function Round_robin r -> rr_dequeue r | Stride s -> st_dequeue s
let remove t id = match t with Round_robin r -> rr_remove r id | Stride s -> st_remove s id

let set_weight t id w = match t with Round_robin _ -> () | Stride s -> st_set_weight s id w

let pending = function Round_robin r -> r.rr_total | Stride s -> s.st_total

let pending_for t id =
  match t with
  | Round_robin r -> if id >= 0 && id < Array.length r.counts then r.counts.(id) else 0
  | Stride s -> if id >= 0 && id < Array.length s.counts then s.counts.(id) else 0
