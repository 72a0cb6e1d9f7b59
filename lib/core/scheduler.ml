type t = {
  name : string;
  enqueue : Cm_types.flow_id -> unit;
  dequeue : unit -> Cm_types.flow_id;
  remove : Cm_types.flow_id -> unit;
  set_weight : Cm_types.flow_id -> float -> unit;
  pending : unit -> int;
  pending_for : Cm_types.flow_id -> int;
}

type factory = unit -> t

(* Scheduler keys are dense small non-negative ints: each macroflow hands
   its scheduler the flow's macroflow-local member index (recycled on
   detach), not the CM-wide flow id.  Both schedulers below exploit that
   by replacing every per-flow hash probe with a direct array index — the
   state for one macroflow's members is a few contiguous, cache-resident
   arrays however many flows the CM serves overall. *)

(* Every per-member array below starts at one slot and doubles as ids
   arrive: most macroflows (one per destination host, kept after their
   last flow closes) never hold more than one or two members at once. *)

(* growable circular buffer of ints: the round-robin ring with no
   per-push allocation and contiguous storage *)
type int_ring = { mutable buf : int array; mutable head : int; mutable len : int }

let ring_create () = { buf = Array.make 1 0; head = 0; len = 0 }

let ring_push r v =
  let cap = Array.length r.buf in
  if r.len = cap then begin
    let buf = Array.make (2 * cap) 0 in
    for i = 0 to r.len - 1 do
      buf.(i) <- r.buf.((r.head + i) land (cap - 1))
    done;
    r.buf <- buf;
    r.head <- 0
  end;
  r.buf.((r.head + r.len) land (Array.length r.buf - 1)) <- v;
  r.len <- r.len + 1

let ring_pop r =
  let v = r.buf.(r.head) in
  r.head <- (r.head + 1) land (Array.length r.buf - 1);
  r.len <- r.len - 1;
  v

(* ring entries pack (epoch, id) so an id recycled after [remove] cannot
   inherit a stale entry's turn: the stale entry's epoch no longer
   matches and it is skipped, exactly as a missing hash-table key was *)
let id_bits = 24
let id_mask = (1 lsl id_bits) - 1

let grow_to arr n fill =
  let cap = Array.length !arr in
  if n > cap then begin
    let bigger = Array.make (Int.max n (2 * cap)) fill in
    Array.blit !arr 0 bigger 0 cap;
    arr := bigger
  end

let round_robin () =
  (* active-set ring: ids that currently have >= 1 pending request.
     Every operation is O(1) (dequeue amortized: a removed id leaves at
     most one stale ring entry, skipped exactly once). *)
  let ring = ring_create () in
  let counts = ref (Array.make 1 0) in
  let epochs = ref (Array.make 1 0) in
  let total = ref 0 in
  let ensure id =
    if id < 0 || id > id_mask then invalid_arg "Scheduler.round_robin: id out of range";
    grow_to counts (id + 1) 0;
    grow_to epochs (id + 1) 0
  in
  let count id = if id >= 0 && id < Array.length !counts then !counts.(id) else 0 in
  let enqueue id =
    ensure id;
    let c = !counts.(id) in
    !counts.(id) <- c + 1;
    incr total;
    if c = 0 then ring_push ring ((!epochs.(id) lsl id_bits) lor id)
  in
  let rec dequeue () =
    if ring.len = 0 then -1
    else begin
      let packed = ring_pop ring in
      let id = packed land id_mask in
      let c = !counts.(id) in
      if packed asr id_bits <> !epochs.(id) || c = 0 then dequeue () (* stale after remove *)
      else begin
        !counts.(id) <- c - 1;
        decr total;
        if c > 1 then ring_push ring packed;
        id
      end
    end
  in
  let remove id =
    if id >= 0 && id < Array.length !counts then begin
      total := !total - !counts.(id);
      !counts.(id) <- 0;
      (* retire outstanding ring entries for this id *)
      !epochs.(id) <- !epochs.(id) + 1
    end
  in
  {
    name = "round-robin";
    enqueue;
    dequeue;
    remove;
    set_weight = (fun _ _ -> ());
    pending = (fun () -> !total);
    pending_for = count;
  }

(* ---- weighted (stride) scheduling ------------------------------------- *)

module Wheel = Cm_util.Wheel

(* A flow's float state.  A record whose fields are all floats stores
   them flat, so writing a pass allocates nothing; a float field of a
   mixed record, or a [float ref], holds a pointer to a fresh 2-word box
   on every write, and a box written into a long-lived entry is promoted
   with it. *)
type tags = {
  mutable weight : float;
  mutable pass : float; (* next service tag *)
}

(* Per-flow scheduler state.  While the flow is backlogged its handle is
   queued under [key pass], so dequeue is extract-min over backlogged
   flows: O(log n) however many flows are registered, instead of the
   full-table scan this replaces.  The handle lives as long as the entry
   and is re-queued in place. *)
type stride_entry = {
  mutable s_count : int; (* pending requests *)
  s_tags : tags;
  s_handle : Cm_types.flow_id Wheel.handle; (* queued iff backlogged *)
}

(* the global pass: the pass of the last grant, in an all-float record
   for the same reason as [tags] *)
type global = { mutable g_pass : float }

(* A handle that starts out of the queue.  Keyed [max_int], it is pushed
   at the heap's tail and unlinked from there in O(1). *)
let detached_handle heap id =
  let h = Wheel.insert heap ~time:max_int id in
  ignore (Wheel.remove heap h);
  h

(* empty-slot sentinel for the dense entry array: a real record, only
   ever compared by physical equality *)
let no_entry =
  let s_handle = detached_handle (Wheel.create ~slots:0 ~dummy:(-1) ()) (-1) in
  { s_count = 0; s_tags = { weight = 0.; pass = 0. }; s_handle }

let stride_k = 1_000_000.

(* The queue key of a pass.  On [+0., max_float] the IEEE-754 bit pattern
   is strictly increasing, and this offset maps that range exactly onto
   OCaml's 63-bit ints, so keys order exactly as passes do; equal passes
   tie on the queue's FIFO sequence number.  Queued passes are never
   negative, -0. or NaN: they start at +0., grow by finite strides (see
   [set_weight]), and a rebase subtracts the global pass, which no queued
   pass is below. *)
let key pass = Int64.to_int (Int64.sub (Int64.bits_of_float pass) 0x3FF0_0000_0000_0000L)

(* Default rebase threshold.  Beyond ~2^52 float addition can no longer
   represent a small stride increment (pass +. stride == pass), silently
   starving heavy-weight flows; rebasing long before that — while the
   threshold still dwarfs any single stride — keeps every addition exact
   to well under one quantum.  10^12 grants at the default stride sit
   three decades below this, but a server-lifetime process gets there. *)
let default_rebase_threshold = 1e15

let weighted_stride ?(rebase_threshold = default_rebase_threshold) () =
  let entries = ref (Array.make 1 no_entry) in
  let heap : Cm_types.flow_id Wheel.t = Wheel.create ~slots:0 ~dummy:(-1) () in
  let total = ref 0 in
  let global = { g_pass = 0. } in
  let entry id =
    if id < 0 then invalid_arg "Scheduler.weighted: id out of range";
    grow_to entries (id + 1) no_entry;
    let e = !entries.(id) in
    if e != no_entry then e
    else begin
      let e =
        {
          s_count = 0;
          s_tags = { weight = 1.0; pass = global.g_pass };
          s_handle = detached_handle heap id;
        }
      in
      !entries.(id) <- e;
      e
    end
  in
  (* Subtract the accumulated pass base from every tag, then re-key the
     queue: pop every backlogged flow and re-queue it under its new key in
     pop order.  The fresh sequence numbers follow the old order among
     equal passes, so rebasing is invisible to the grant sequence; it only
     keeps the floats small. *)
  let rebase () =
    let base = global.g_pass in
    Array.iter
      (fun e -> if e != no_entry then e.s_tags.pass <- e.s_tags.pass -. base)
      !entries;
    global.g_pass <- 0.;
    let queued = Array.init (Wheel.size heap) (fun _ -> Wheel.pop_min heap) in
    Array.iter
      (fun h -> Wheel.reinsert heap h ~time:(key !entries.(Wheel.handle_value h).s_tags.pass))
      queued
  in
  let enqueue id =
    let e = entry id in
    e.s_count <- e.s_count + 1;
    incr total;
    if e.s_count = 1 then begin
      (* a newly backlogged flow re-enters at the current global pass so it
         cannot hoard credit accumulated while idle *)
      let tg = e.s_tags in
      tg.pass <- Float.max global.g_pass tg.pass;
      Wheel.reinsert heap e.s_handle ~time:(key tg.pass)
    end
  in
  let dequeue () =
    if !total = 0 then -1
    else begin
      let hd = Wheel.min_handle heap in
      let id = Wheel.handle_value hd in
      let e = !entries.(id) in
      let tg = e.s_tags in
      let pass = tg.pass in
      e.s_count <- e.s_count - 1;
      decr total;
      global.g_pass <- pass;
      tg.pass <- pass +. (stride_k /. tg.weight);
      if e.s_count > 0 then ignore (Wheel.update heap hd ~time:(key tg.pass))
      else ignore (Wheel.remove heap hd);
      if global.g_pass > rebase_threshold then rebase ();
      id
    end
  in
  let remove id =
    if id >= 0 && id < Array.length !entries then begin
      let e = !entries.(id) in
      if e != no_entry then begin
        total := !total - e.s_count;
        ignore (Wheel.remove heap e.s_handle);
        !entries.(id) <- no_entry
      end
    end
  in
  let set_weight id w =
    if not (Float.is_finite w && w > 0. && Float.is_finite (stride_k /. w)) then
      invalid_arg "Scheduler.weighted: weight must be positive and finite, with a finite stride";
    (entry id).s_tags.weight <- w
  in
  let pending_for id =
    if id >= 0 && id < Array.length !entries then begin
      let e = !entries.(id) in
      if e != no_entry then e.s_count else 0
    end
    else 0
  in
  {
    name = "weighted-stride";
    enqueue;
    dequeue;
    remove;
    set_weight;
    pending = (fun () -> !total);
    pending_for;
  }

let weighted () = weighted_stride ()
