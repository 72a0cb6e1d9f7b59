(* Hashed timing wheel with an exact total pop order.

   A priority queue over (time, seq) keys — seq is an internal counter
   giving FIFO order among equal times — split into three stores by
   temporal distance from a moving [cursor]:

     - the *current-slot heap* [cur]: entries whose slot is at or before
       the cursor.  Pop is extract-min over this small heap — its size is
       one slot's occupancy, not the whole queue's, so the sift working
       set stays cache-resident however many events are outstanding.
     - the *wheel*: one append-only vector per slot for entries within
       [n_slots] slots of the cursor.  Insert and (swap) remove are O(1).
     - the *overflow heap* [over]: entries beyond the wheel horizon.
       They migrate into [cur] when the cursor reaches their slot, so a
       far-future event pays two O(log overflow) heap operations in its
       lifetime, however often the cursor turns.

   Exactness argument (why pop order equals a single heap's): every entry
   in [cur] has slot <= cursor and every entry in a wheel slot or in
   overflow has slot > cursor, so all [cur] times are strictly below all
   wheel/overflow times (slot boundaries are time boundaries).  When [cur]
   drains, the cursor advances directly to the minimum occupied slot
   across wheel and overflow and moves exactly that slot's entries into
   [cur] — nothing is skipped, nothing later is mixed in.  Within [cur]
   the heap orders by (time, seq), which is a total order (seq is unique),
   so the interleaving of pops and inserts cannot depend on internal
   layout.  [slots = 0] degenerates to a single binary heap over the same
   keys — the reference the property tests compare against.

   Entry blocks are reusable via {!reinsert}: a re-inserted entry takes a
   fresh seq, so FIFO tie-breaking treats it as the newest arrival.  A
   caller may also take a seq early ({!reserve_seq}) and queue with it
   later ({!rekey}); the key then orders exactly as if the entry had been
   queued when the seq was taken.  Seqs stay unique, so the order stays
   total. *)

type 'a entry = {
  mutable time : int;
  mutable seq : int;
  mutable value : 'a;
  mutable where : int; (* w_out, w_cur, w_over, or a physical slot index *)
  mutable pos : int; (* index within the slot vector or heap array *)
}

type 'a handle = 'a entry

let w_out = -1
let w_cur = -2
let w_over = -3

(* Filler for empty array cells: every access is guarded by a length,
   so its value (the caller's [~dummy]) is never read.  One block per
   wheel, shared by both heaps and every slot vector. *)
let sentinel dummy = { time = max_int; seq = max_int; value = dummy; where = w_out; pos = -1 }

(* ---- internal binary heap over (time, seq) ----------------------------- *)

(* The key of slot [i] is mirrored into a flat int array at [pkey.(2i)] /
   [pkey.(2i+1)], so sift comparisons read cache-line-local unboxed ints;
   entry blocks are touched only when a slot actually moves. *)
type 'a pq = {
  mutable parr : 'a entry array;
  mutable pkey : int array;
  mutable plen : int;
  psent : 'a entry; (* the wheel's filler for empty cells *)
}

let pq_create psent = { parr = Array.make 16 psent; pkey = Array.make 32 0; plen = 0; psent }

let pq_set q i e =
  q.parr.(i) <- e;
  q.pkey.((2 * i)) <- e.time;
  q.pkey.((2 * i) + 1) <- e.seq;
  e.pos <- i

let pq_grow q =
  if q.plen = Array.length q.parr then begin
    let cap = 2 * Array.length q.parr in
    let bigger = Array.make cap q.psent in
    Array.blit q.parr 0 bigger 0 q.plen;
    q.parr <- bigger;
    let bigger_key = Array.make (2 * cap) 0 in
    Array.blit q.pkey 0 bigger_key 0 (2 * q.plen);
    q.pkey <- bigger_key
  end

let pq_sift_up q i0 =
  if i0 > 0 then begin
    let e = q.parr.(i0) in
    let k = q.pkey in
    let et = Array.unsafe_get k (2 * i0) and es = Array.unsafe_get k ((2 * i0) + 1) in
    let i = ref i0 in
    let continue = ref true in
    while !continue do
      if !i = 0 then continue := false
      else begin
        let parent = (!i - 1) / 2 in
        let pt = Array.unsafe_get k (2 * parent)
        and ps = Array.unsafe_get k ((2 * parent) + 1) in
        if et < pt || (et = pt && es < ps) then begin
          let moved = q.parr.(parent) in
          q.parr.(!i) <- moved;
          moved.pos <- !i;
          Array.unsafe_set k (2 * !i) pt;
          Array.unsafe_set k ((2 * !i) + 1) ps;
          i := parent
        end
        else continue := false
      end
    done;
    if !i <> i0 then begin
      q.parr.(!i) <- e;
      e.pos <- !i;
      Array.unsafe_set k (2 * !i) et;
      Array.unsafe_set k ((2 * !i) + 1) es
    end
  end

let pq_sift_down q i0 =
  let e = q.parr.(i0) in
  let k = q.pkey in
  let et = Array.unsafe_get k (2 * i0) and es = Array.unsafe_get k ((2 * i0) + 1) in
  let i = ref i0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= q.plen then continue := false
    else begin
      let m = ref l in
      let r = l + 1 in
      if r < q.plen then begin
        let lt = Array.unsafe_get k (2 * l) and ls = Array.unsafe_get k ((2 * l) + 1) in
        let rt = Array.unsafe_get k (2 * r) and rs = Array.unsafe_get k ((2 * r) + 1) in
        if rt < lt || (rt = lt && rs < ls) then m := r
      end;
      let mt = Array.unsafe_get k (2 * !m) and ms = Array.unsafe_get k ((2 * !m) + 1) in
      if mt < et || (mt = et && ms < es) then begin
        let child = q.parr.(!m) in
        q.parr.(!i) <- child;
        child.pos <- !i;
        Array.unsafe_set k (2 * !i) mt;
        Array.unsafe_set k ((2 * !i) + 1) ms;
        i := !m
      end
      else continue := false
    end
  done;
  if !i <> i0 then begin
    q.parr.(!i) <- e;
    e.pos <- !i;
    Array.unsafe_set k (2 * !i) et;
    Array.unsafe_set k ((2 * !i) + 1) es
  end

let pq_push q tag e =
  pq_grow q;
  e.where <- tag;
  q.plen <- q.plen + 1;
  pq_set q (q.plen - 1) e;
  pq_sift_up q (q.plen - 1)

let pq_delete q i =
  let victim = q.parr.(i) in
  victim.pos <- -1;
  victim.where <- w_out;
  let last = q.plen - 1 in
  if i = last then begin
    q.parr.(last) <- q.psent;
    q.plen <- last
  end
  else begin
    let moved = q.parr.(last) in
    q.parr.(last) <- q.psent;
    q.plen <- last;
    pq_set q i moved;
    pq_sift_down q i;
    pq_sift_up q i
  end;
  victim

let pq_heapify q =
  if q.plen > 1 then
    for i = (q.plen - 2) / 2 downto 0 do
      pq_sift_down q i
    done

let pq_filter q keep =
  let kept = ref 0 in
  for i = 0 to q.plen - 1 do
    let e = q.parr.(i) in
    if keep e.value then begin
      pq_set q !kept e;
      incr kept
    end
    else begin
      e.pos <- -1;
      e.where <- w_out
    end
  done;
  for i = !kept to q.plen - 1 do
    q.parr.(i) <- q.psent
  done;
  q.plen <- !kept;
  pq_heapify q

(* ---- wheel slots -------------------------------------------------------- *)

type 'a slot = { mutable sarr : 'a entry array; mutable slen : int }

type 'a t = {
  n_slots : int; (* power of two; 0 = pure-heap mode *)
  mask : int;
  slots : 'a slot array;
  occ : int array; (* occupancy bitmap, 32 slots per word (OCaml ints are 63-bit) *)
  mutable cursor : int; (* absolute slot index the current-slot heap covers *)
  cur : 'a pq;
  over : 'a pq;
  sent : 'a entry; (* filler for empty slot cells, shared with [cur] and [over] *)
  mutable in_slots : int; (* entries currently held in wheel slots *)
  mutable size : int;
  mutable next_seq : int;
  (* occupancy statistics for the profiler: cheap counters on paths that
     already do heap work, plus one compare per insert for the high-water *)
  mutable s_overflow : int; (* inserts routed beyond the wheel horizon *)
  mutable s_migrated : int; (* overflow entries later moved into [cur] *)
  mutable s_hw_size : int; (* high-water of [size] *)
  mutable s_hw_cur : int; (* high-water of the current-slot heap *)
}

type stats = {
  overflow_inserts : int;
  overflow_migrations : int;
  hw_size : int;
  hw_cur : int;
  size_now : int;
}

let bits = 14 (* slot width 2^bits: 16.384 us slots at ns resolution *)
let default_slots = 1024 (* horizon: 1024 slots = 16.8 ms *)

let create ?(slots = default_slots) ?(start = 0) ~dummy () =
  if slots <> 0 && slots land (slots - 1) <> 0 then
    invalid_arg "Wheel.create: slots must be a power of two (or 0 for pure-heap mode)";
  let sent = sentinel dummy in
  {
    n_slots = slots;
    mask = slots - 1;
    slots = Array.init (Stdlib.max 1 slots) (fun _ -> { sarr = [||]; slen = 0 });
    occ = Array.make (Stdlib.max 1 ((slots + 31) / 32)) 0;
    cursor = start asr bits;
    cur = pq_create sent;
    over = pq_create sent;
    sent;
    in_slots = 0;
    size = 0;
    next_seq = 0;
    s_overflow = 0;
    s_migrated = 0;
    s_hw_size = 0;
    s_hw_cur = 0;
  }

let stats t =
  {
    overflow_inserts = t.s_overflow;
    overflow_migrations = t.s_migrated;
    hw_size = t.s_hw_size;
    hw_cur = t.s_hw_cur;
    size_now = t.size;
  }

let size t = t.size
let is_empty t = t.size = 0

let occ_set t p = t.occ.(p lsr 5) <- t.occ.(p lsr 5) lor (1 lsl (p land 31))
let occ_clear t p = t.occ.(p lsr 5) <- t.occ.(p lsr 5) land lnot (1 lsl (p land 31))

(* number of trailing zeros; [x] must be non-zero and fit in 32 bits *)
let ntz x =
  let x = x land -x in
  let n = ref 0 in
  let x = if x land 0xFFFF = 0 then (n := !n + 16; x lsr 16) else x in
  let x = if x land 0xFF = 0 then (n := !n + 8; x lsr 8) else x in
  let x = if x land 0xF = 0 then (n := !n + 4; x lsr 4) else x in
  let x = if x land 0x3 = 0 then (n := !n + 2; x lsr 2) else x in
  if x land 0x1 = 0 then !n + 1 else !n

let slot_push t p e =
  let sl = t.slots.(p) in
  if sl.slen = Array.length sl.sarr then begin
    let cap = Stdlib.max 8 (2 * Array.length sl.sarr) in
    let bigger = Array.make cap t.sent in
    Array.blit sl.sarr 0 bigger 0 sl.slen;
    sl.sarr <- bigger
  end;
  sl.sarr.(sl.slen) <- e;
  e.where <- p;
  e.pos <- sl.slen;
  sl.slen <- sl.slen + 1;
  if sl.slen = 1 then occ_set t p;
  t.in_slots <- t.in_slots + 1

(* Route an entry to its store.  Entries at or before the cursor's slot go
   straight into the current-slot heap (delay-0 schedules, and inserts
   after the clock was advanced by a bounded run); entries within one
   revolution go into their wheel slot; the rest overflow. *)
let place t e =
  if t.n_slots = 0 then pq_push t.over w_over e
  else begin
    let s = e.time asr bits in
    if s <= t.cursor then begin
      pq_push t.cur w_cur e;
      if t.cur.plen > t.s_hw_cur then t.s_hw_cur <- t.cur.plen
    end
    else if s - t.cursor <= t.n_slots then slot_push t (s land t.mask) e
    else begin
      t.s_overflow <- t.s_overflow + 1;
      pq_push t.over w_over e
    end
  end

let reserve_seq t =
  let s = t.next_seq in
  t.next_seq <- s + 1;
  s

let detached value = { time = 0; seq = min_int; value; where = w_out; pos = -1 }

let detach t e =
  match e.where with
  | w when w = w_cur -> ignore (pq_delete t.cur e.pos)
  | w when w = w_over -> ignore (pq_delete t.over e.pos)
  | p ->
      (* p >= 0: swap-remove from the slot vector *)
      let sl = t.slots.(p) in
      let last = sl.slen - 1 in
      if e.pos <> last then begin
        let moved = sl.sarr.(last) in
        sl.sarr.(e.pos) <- moved;
        moved.pos <- e.pos
      end;
      sl.sarr.(last) <- t.sent;
      sl.slen <- last;
      if last = 0 then occ_clear t p;
      t.in_slots <- t.in_slots - 1;
      e.where <- w_out;
      e.pos <- -1

let remove t e =
  if e.where = w_out then false
  else begin
    detach t e;
    t.size <- t.size - 1;
    true
  end

(* Queue [e] at exactly [(time, seq)]: a queued entry moves (in pure-heap
   mode it is re-keyed where it stands), an extracted one re-enters. *)
let rekey t e ~time ~seq =
  if e.where = w_out then begin
    e.time <- time;
    e.seq <- seq;
    t.size <- t.size + 1;
    if t.size > t.s_hw_size then t.s_hw_size <- t.size;
    place t e
  end
  else if t.n_slots > 0 then begin
    detach t e;
    e.time <- time;
    e.seq <- seq;
    place t e
  end
  else begin
    e.time <- time;
    e.seq <- seq;
    pq_set t.over e.pos e;
    pq_sift_up t.over e.pos;
    pq_sift_down t.over e.pos
  end

let insert t ~time value =
  let e = detached value in
  rekey t e ~time ~seq:(reserve_seq t);
  e

let reinsert t (e : 'a handle) ~time =
  if e.where <> w_out then invalid_arg "Wheel.reinsert: handle still queued";
  rekey t e ~time ~seq:(reserve_seq t)

let update t e ~time =
  e.where <> w_out
  && begin
    rekey t e ~time ~seq:(reserve_seq t);
    true
  end

(* physical slot of the first occupied slot found scanning bitmap words
   [w0 + k], [w0 + k + 1], ... (wrapping), ending with the low bits of
   word [w0] below [p0]; top level so the scan allocates no closure *)
let rec scan_occ t ~w0 ~p0 k =
  let words = Array.length t.occ in
  let w = (w0 + k) mod words in
  let m = if k = words then t.occ.(w0) land lnot (-1 lsl (p0 land 31)) else t.occ.(w) in
  if m <> 0 then (w lsl 5) + ntz m
  else if k >= words then invalid_arg "Wheel: occupancy bitmap inconsistent"
  else scan_occ t ~w0 ~p0 (k + 1)

(* Absolute slot of the nearest occupied wheel slot strictly after the
   cursor; requires [in_slots > 0].  One bitmap word scan per 64 slots,
   in absolute (wrapping-physical) order. *)
let next_wheel_abs t =
  let p0 = (t.cursor + 1) land t.mask in
  let w0 = p0 lsr 5 in
  let first = t.occ.(w0) land (-1 lsl (p0 land 31)) in
  let p = if first <> 0 then (w0 lsl 5) + ntz first else scan_occ t ~w0 ~p0 1 in
  t.cursor + 1 + ((p - p0) land t.mask)

(* Advance the cursor to the minimum occupied slot across wheel and
   overflow, and move exactly that slot's entries into the current-slot
   heap.  Requires [size > 0] and [cur] empty. *)
let refill t =
  let k_w = if t.in_slots > 0 then next_wheel_abs t else max_int in
  let k_o = if t.over.plen > 0 then t.over.parr.(0).time asr bits else max_int in
  let k = Stdlib.min k_w k_o in
  t.cursor <- k;
  if k = k_w then begin
    let p = k land t.mask in
    let sl = t.slots.(p) in
    let n = sl.slen in
    for i = 0 to n - 1 do
      let e = sl.sarr.(i) in
      sl.sarr.(i) <- t.sent;
      pq_push t.cur w_cur e
    done;
    sl.slen <- 0;
    occ_clear t p;
    t.in_slots <- t.in_slots - n
  end;
  while t.over.plen > 0 && t.over.parr.(0).time asr bits <= k do
    let e = pq_delete t.over 0 in
    t.s_migrated <- t.s_migrated + 1;
    pq_push t.cur w_cur e
  done;
  if t.cur.plen > t.s_hw_cur then t.s_hw_cur <- t.cur.plen

let min_handle t =
  if t.size = 0 then invalid_arg "Wheel.min_handle: empty";
  if t.n_slots = 0 then t.over.parr.(0)
  else begin
    if t.cur.plen = 0 then refill t;
    t.cur.parr.(0)
  end

let pop_min t =
  let e = min_handle t in
  detach t e;
  t.size <- t.size - 1;
  e

let mem _t (e : 'a handle) = e.where <> w_out
let handle_time (e : 'a handle) = e.time
let handle_value (e : 'a handle) = e.value
let handle_seq (e : 'a handle) = e.seq
let set_handle_value (e : 'a handle) v = e.value <- v

let filter_in_place t keep =
  pq_filter t.cur keep;
  pq_filter t.over keep;
  if t.n_slots > 0 then begin
    t.in_slots <- 0;
    for p = 0 to t.n_slots - 1 do
      let sl = t.slots.(p) in
      if sl.slen > 0 then begin
        let kept = ref 0 in
        for i = 0 to sl.slen - 1 do
          let e = sl.sarr.(i) in
          if keep e.value then begin
            sl.sarr.(!kept) <- e;
            e.pos <- !kept;
            incr kept
          end
          else begin
            e.pos <- -1;
            e.where <- w_out
          end
        done;
        for i = !kept to sl.slen - 1 do
          sl.sarr.(i) <- t.sent
        done;
        sl.slen <- !kept;
        if !kept = 0 then occ_clear t p;
        t.in_slots <- t.in_slots + !kept
      end
    done
  end;
  t.size <- t.cur.plen + t.over.plen + t.in_slots
