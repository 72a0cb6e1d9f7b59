open Cm_util

(* The event queue, the engine, timers and the CPU server are one
   compilation unit.  Dune's dev profile compiles each library with
   -opaque, so a call into another unit is an indirect call through that
   unit's module block and is never inlined: every function the event path
   calls per event lives in this file, or is a primitive. *)

(* ---- the queue ---------------------------------------------------------- *)

module Queue = struct
  (* A hashed timing wheel with an exact total pop order over (time, seq)
     keys — seq is a counter, so ties pop FIFO — split into three stores by
     temporal distance from a moving [cursor]:

       - the current-slot heap [cur]: entries whose slot is at or before
         the cursor.  Its size is one slot's occupancy, so the sift working
         set stays small however many entries are queued.
       - the wheel: one vector per slot for entries within [n_slots] slots
         of the cursor; insert and (swap) remove are O(1).
       - the overflow heap [over]: entries beyond the horizon; they migrate
         into [cur] when the cursor reaches their slot.

     Every [cur] time is below every wheel or overflow time (slot
     boundaries are time boundaries), and a refill moves exactly the next
     occupied slot into [cur], so pops follow the (time, seq) order of one
     heap over the same keys whatever the layout.  [slots = 0] is that one
     heap, the reference the tests compare against.

     Storage holds no pointer but the values.  An entry is an int id; its
     key is [keys.(2id)], [keys.(2id+1)], its value [vals.(id)] (written
     once per schedule), and [loc.(id)] packs where it is: [(pos lsl
     wbits) lor where] while queued, 0 while allocated and not queued, and
     [-2 - next] while on the free list, which is threaded through [loc].
     Heaps and slot vectors hold ids, so a sift, a slot push or a release
     stores ints and pays no write barrier. *)

  let wbits = 20
  let wmask = (1 lsl wbits) - 1
  let w_cur = 1
  let w_over = 2 (* slot [p] is [p + 3] *)

  (* A binary heap of ids.  The keys of slot [i] are mirrored at
     [pkey.(2i)], [pkey.(2i+1)], so sift comparisons read one array. *)
  type heap = { mutable parr : int array; mutable pkey : int array; mutable plen : int; tag : int }

  type 'a t = {
    mutable keys : int array;
    mutable loc : int array;
    mutable vals : 'a array;
    dummy : 'a; (* filler for unused value cells, never handed back *)
    mutable n_ids : int; (* ids ever allocated: the storage's high-water *)
    mutable free : int; (* head of the free list, -1 when empty *)
    n_slots : int; (* power of two; 0 = pure-heap mode *)
    mask : int;
    sarr : int array array; (* slot vectors *)
    slen : int array;
    occ : int array; (* occupancy bitmap, 32 slots per word *)
    mutable cursor : int; (* absolute slot [cur] covers *)
    cur : heap;
    over : heap;
    mutable in_slots : int;
    mutable size : int;
    mutable next_seq : int;
    mutable s_overflow : int; (* inserts routed beyond the horizon *)
    mutable s_migrated : int; (* overflow entries later moved into [cur] *)
    mutable s_hw_size : int;
    mutable s_hw_cur : int;
  }

  let bits = 14 (* slot width 2^bits: 16.384 us at ns resolution *)

  let create ?(slots = 1024) ?(start = 0) ~dummy () =
    if slots < 0 || slots > 1 lsl (wbits - 1) || slots land (slots - 1) <> 0 then
      invalid_arg "Engine.Queue.create: slots must be a power of two below 2^19 (or 0)";
    let heap tag = { parr = [||]; pkey = [||]; plen = 0; tag } in
    {
      keys = Array.make 2 0;
      loc = Array.make 1 0;
      vals = Array.make 1 dummy;
      dummy;
      n_ids = 0;
      free = -1;
      n_slots = slots;
      mask = slots - 1;
      sarr = Array.make slots [||];
      slen = Array.make slots 0;
      occ = Array.make ((slots + 31) / 32) 0;
      cursor = start asr bits;
      cur = heap w_cur;
      over = heap w_over;
      in_slots = 0;
      size = 0;
      next_seq = 0;
      s_overflow = 0;
      s_migrated = 0;
      s_hw_size = 0;
      s_hw_cur = 0;
    }

  let size q = q.size
  let mem q id = q.loc.(id) > 0
  let value q id = q.vals.(id)
  let time q id = q.keys.(2 * id)
  let seq q id = q.keys.((2 * id) + 1)

  let reserve_seq q =
    let s = q.next_seq in
    q.next_seq <- s + 1;
    s

  let grow_ids q =
    let cap = Array.length q.loc in
    let keys = Array.make (4 * cap) 0 and loc = Array.make (2 * cap) 0 in
    let vals = Array.make (2 * cap) q.dummy in
    Array.blit q.keys 0 keys 0 (2 * cap);
    Array.blit q.loc 0 loc 0 cap;
    Array.blit q.vals 0 vals 0 cap;
    q.keys <- keys;
    q.loc <- loc;
    q.vals <- vals

  let alloc q v =
    let id = q.free in
    if id >= 0 then begin
      q.free <- -2 - q.loc.(id);
      q.loc.(id) <- 0;
      q.vals.(id) <- v;
      id
    end
    else begin
      let id = q.n_ids in
      if id = Array.length q.loc then grow_ids q;
      q.n_ids <- id + 1;
      q.vals.(id) <- v;
      id
    end

  let drop q id =
    q.loc.(id) <- -2 - q.free;
    q.free <- id

  let release q id =
    if q.loc.(id) <> 0 then invalid_arg "Engine.Queue.release: id queued or already free";
    drop q id

  (* ---- heaps ---- *)

  let pq_grow h =
    let cap = Int.max 8 (2 * h.plen) in
    let parr = Array.make cap 0 and pkey = Array.make (2 * cap) 0 in
    Array.blit h.parr 0 parr 0 h.plen;
    Array.blit h.pkey 0 pkey 0 (2 * h.plen);
    h.parr <- parr;
    h.pkey <- pkey

  (* put [id], keyed [(t, s)], at heap index [i] *)
  let pq_put q h i id t s =
    Array.unsafe_set h.parr i id;
    Array.unsafe_set h.pkey (2 * i) t;
    Array.unsafe_set h.pkey ((2 * i) + 1) s;
    q.loc.(id) <- (i lsl wbits) lor h.tag

  let pq_sift_up q h i0 =
    let k = h.pkey in
    let id = h.parr.(i0) and et = k.(2 * i0) and es = k.((2 * i0) + 1) in
    let i = ref i0 in
    let continue = ref true in
    while !continue && !i > 0 do
      let parent = (!i - 1) / 2 in
      let pt = Array.unsafe_get k (2 * parent) and ps = Array.unsafe_get k ((2 * parent) + 1) in
      if et < pt || (et = pt && es < ps) then begin
        pq_put q h !i (Array.unsafe_get h.parr parent) pt ps;
        i := parent
      end
      else continue := false
    done;
    if !i <> i0 then pq_put q h !i id et es

  let pq_sift_down q h i0 =
    let k = h.pkey in
    let id = h.parr.(i0) and et = k.(2 * i0) and es = k.((2 * i0) + 1) in
    let i = ref i0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= h.plen then continue := false
      else begin
        let m = ref l in
        let r = l + 1 in
        if r < h.plen then begin
          let lt = Array.unsafe_get k (2 * l) and ls = Array.unsafe_get k ((2 * l) + 1) in
          let rt = Array.unsafe_get k (2 * r) and rs = Array.unsafe_get k ((2 * r) + 1) in
          if rt < lt || (rt = lt && rs < ls) then m := r
        end;
        let mt = Array.unsafe_get k (2 * !m) and ms = Array.unsafe_get k ((2 * !m) + 1) in
        if mt < et || (mt = et && ms < es) then begin
          pq_put q h !i (Array.unsafe_get h.parr !m) mt ms;
          i := !m
        end
        else continue := false
      end
    done;
    if !i <> i0 then pq_put q h !i id et es

  let pq_push q h id =
    if h.plen = Array.length h.parr then pq_grow h;
    let i = h.plen in
    h.plen <- i + 1;
    pq_put q h i id q.keys.(2 * id) q.keys.((2 * id) + 1);
    pq_sift_up q h i

  (* unlink heap index [i]; its id is left allocated, not queued *)
  let pq_delete q h i =
    q.loc.(h.parr.(i)) <- 0;
    let last = h.plen - 1 in
    h.plen <- last;
    if i < last then begin
      let k = h.pkey in
      pq_put q h i h.parr.(last) k.(2 * last) k.((2 * last) + 1);
      pq_sift_down q h i;
      pq_sift_up q h i
    end

  let pq_filter q h keep =
    let kept = ref 0 in
    for i = 0 to h.plen - 1 do
      let id = h.parr.(i) in
      if keep q.vals.(id) then begin
        pq_put q h !kept id h.pkey.(2 * i) h.pkey.((2 * i) + 1);
        incr kept
      end
      else drop q id
    done;
    h.plen <- !kept;
    for i = (h.plen - 2) / 2 downto 0 do
      pq_sift_down q h i
    done

  (* ---- wheel slots ---- *)

  let occ_set q p = q.occ.(p lsr 5) <- q.occ.(p lsr 5) lor (1 lsl (p land 31))
  let occ_clear q p = q.occ.(p lsr 5) <- q.occ.(p lsr 5) land lnot (1 lsl (p land 31))

  (* trailing zeros of a non-zero 32-bit word, branch-free: the lowest set
     bit times a de Bruijn constant puts a distinct 5-bit pattern in bits
     27..31, which the table maps back *)
  let debruijn_pos =
    [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
       31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

  let ntz x = Array.unsafe_get debruijn_pos ((((x land -x) * 0x077CB531) lsr 27) land 31)

  let slot_push q p id =
    let n = q.slen.(p) in
    let v = q.sarr.(p) in
    let v =
      if n < Array.length v then v
      else begin
        let bigger = Array.make (Int.max 8 (2 * n)) 0 in
        Array.blit v 0 bigger 0 n;
        q.sarr.(p) <- bigger;
        bigger
      end
    in
    v.(n) <- id;
    q.loc.(id) <- (n lsl wbits) lor (p + 3);
    q.slen.(p) <- n + 1;
    if n = 0 then occ_set q p;
    q.in_slots <- q.in_slots + 1

  (* Route an entry to its store: at or before the cursor's slot into
     [cur], within one revolution into its slot, beyond into [over]. *)
  let place q id time =
    if q.n_slots = 0 then pq_push q q.over id
    else begin
      let s = time asr bits in
      if s <= q.cursor then begin
        pq_push q q.cur id;
        if q.cur.plen > q.s_hw_cur then q.s_hw_cur <- q.cur.plen
      end
      else if s - q.cursor <= q.n_slots then slot_push q (s land q.mask) id
      else begin
        q.s_overflow <- q.s_overflow + 1;
        pq_push q q.over id
      end
    end

  let detach q id =
    let l = q.loc.(id) in
    let w = l land wmask and pos = l lsr wbits in
    if w = w_cur then pq_delete q q.cur pos
    else if w = w_over then pq_delete q q.over pos
    else begin
      let p = w - 3 in
      let v = q.sarr.(p) in
      let last = q.slen.(p) - 1 in
      if pos <> last then begin
        let moved = v.(last) in
        v.(pos) <- moved;
        q.loc.(moved) <- (pos lsl wbits) lor w
      end;
      q.slen.(p) <- last;
      if last = 0 then occ_clear q p;
      q.in_slots <- q.in_slots - 1;
      q.loc.(id) <- 0
    end

  let remove q id =
    q.loc.(id) > 0
    && begin
         detach q id;
         q.size <- q.size - 1;
         true
       end

  (* Queue [id] at exactly [(time, seq)]: a queued entry moves (in
     pure-heap mode it is re-keyed where it stands), an allocated one
     enters. *)
  let rekey q id ~time ~seq =
    let l = q.loc.(id) in
    if l < 0 then invalid_arg "Engine.Queue.rekey: free id";
    if l = 0 || q.n_slots > 0 then begin
      if l = 0 then begin
        q.size <- q.size + 1;
        if q.size > q.s_hw_size then q.s_hw_size <- q.size
      end
      else detach q id;
      q.keys.(2 * id) <- time;
      q.keys.((2 * id) + 1) <- seq;
      place q id time
    end
    else begin
      let h = q.over and i = l lsr wbits in
      q.keys.(2 * id) <- time;
      q.keys.((2 * id) + 1) <- seq;
      pq_put q h i id time seq;
      pq_sift_up q h i;
      pq_sift_down q h (q.loc.(id) lsr wbits)
    end

  let push q ~time ~seq v =
    let id = alloc q v in
    rekey q id ~time ~seq;
    id

  let reinsert q id ~time =
    if q.loc.(id) <> 0 then invalid_arg "Engine.Queue.reinsert: id queued or free";
    rekey q id ~time ~seq:(reserve_seq q)

  let update q id ~time =
    q.loc.(id) > 0
    && begin
         rekey q id ~time ~seq:(reserve_seq q);
         true
       end

  (* physical slot of the first occupied slot scanning bitmap words
     [w0 + k], [w0 + k + 1], ... (wrapping), ending with the low bits of
     word [w0] below [p0] *)
  let rec scan_occ q ~w0 ~p0 k =
    let words = Array.length q.occ in
    let w = (w0 + k) mod words in
    let m = if k = words then q.occ.(w0) land lnot (-1 lsl (p0 land 31)) else q.occ.(w) in
    if m <> 0 then (w lsl 5) + ntz m
    else if k >= words then invalid_arg "Engine.Queue: occupancy bitmap inconsistent"
    else scan_occ q ~w0 ~p0 (k + 1)

  (* absolute slot of the nearest occupied slot after the cursor *)
  let next_wheel_abs q =
    let p0 = (q.cursor + 1) land q.mask in
    let w0 = p0 lsr 5 in
    let first = q.occ.(w0) land (-1 lsl (p0 land 31)) in
    let p = if first <> 0 then (w0 lsl 5) + ntz first else scan_occ q ~w0 ~p0 1 in
    q.cursor + 1 + ((p - p0) land q.mask)

  (* Advance the cursor to the minimum occupied slot across wheel and
     overflow and move exactly that slot's entries into [cur].  Requires
     [size > 0] and [cur] empty. *)
  let refill q =
    let k_w = if q.in_slots > 0 then next_wheel_abs q else max_int in
    let over = q.over in
    let k_o = if over.plen > 0 then over.pkey.(0) asr bits else max_int in
    let k = Int.min k_w k_o in
    q.cursor <- k;
    if k = k_w then begin
      let p = k land q.mask in
      let v = q.sarr.(p) and n = q.slen.(p) in
      for i = 0 to n - 1 do
        pq_push q q.cur v.(i)
      done;
      q.slen.(p) <- 0;
      occ_clear q p;
      q.in_slots <- q.in_slots - n
    end;
    while over.plen > 0 && over.pkey.(0) asr bits <= k do
      let id = over.parr.(0) in
      pq_delete q over 0;
      q.s_migrated <- q.s_migrated + 1;
      pq_push q q.cur id
    done;
    if q.cur.plen > q.s_hw_cur then q.s_hw_cur <- q.cur.plen

  (* the heap whose root is the minimum; may advance the cursor *)
  let min_heap q =
    if q.size = 0 then invalid_arg "Engine.Queue: empty";
    if q.n_slots = 0 then q.over
    else begin
      if q.cur.plen = 0 then refill q;
      q.cur
    end

  let pop_root q h =
    pq_delete q h 0;
    q.size <- q.size - 1

  let min_id q = (min_heap q).parr.(0)

  let pop_min q =
    let h = min_heap q in
    let id = h.parr.(0) in
    pop_root q h;
    id

  let filter_in_place q keep =
    pq_filter q q.cur keep;
    pq_filter q q.over keep;
    q.in_slots <- 0;
    for p = 0 to q.n_slots - 1 do
      let n = q.slen.(p) in
      if n > 0 then begin
        let v = q.sarr.(p) in
        let kept = ref 0 in
        for i = 0 to n - 1 do
          let id = v.(i) in
          if keep q.vals.(id) then begin
            v.(!kept) <- id;
            q.loc.(id) <- (!kept lsl wbits) lor (p + 3);
            incr kept
          end
          else drop q id
        done;
        q.slen.(p) <- !kept;
        if !kept = 0 then occ_clear q p;
        q.in_slots <- q.in_slots + !kept
      end
    done;
    q.size <- q.cur.plen + q.over.plen + q.in_slots

  let stats q =
    {
      Wheel.overflow_inserts = q.s_overflow;
      overflow_migrations = q.s_migrated;
      hw_size = q.s_hw_size;
      hw_cur = q.s_hw_cur;
      size_now = q.size;
    }
end

(* ---- the engine --------------------------------------------------------- *)

(* The callback is the queue entry's value.  Cancellation overwrites it
   with the shared [dead] closure and leaves the entry queued (lazy: it is
   skipped when it surfaces).  A popped id goes straight back to the free
   list, before its callback runs, and its value cell keeps the fired
   closure until the id is reused — clearing it would cost a write barrier
   per event.  A handle is an id and the seq it was queued with: seqs are
   unique over the queue's life (a timer reuses only its own reserved
   stamp), so a handle is live iff its id still carries that seq, is
   queued and is not [dead] — which a fired, cancelled, released or
   reallocated id never is.  [rearm] re-points a handle, so a timer keeps
   one for life. *)
type handle = { mutable hid : int; mutable h_seq : int }

let dead : unit -> unit = fun () -> ()

(* Sampling profiler state (see [enable_prof]).  Dispatch counters are
   exact per category; every [2^sample_shift] dispatches the wall time
   since the previous sample is charged to the category of the event that
   just ran. *)
type prof = {
  p_names : string array;
  p_dispatch : int array;
  p_wall : float array; (* sampled wall seconds per category *)
  mutable p_cur : int; (* category of the event being dispatched *)
  p_mask : int; (* sample every (mask+1) dispatches *)
  mutable p_samples : int;
  mutable p_last : float; (* wall clock at the previous sample *)
  p_t0 : float; (* wall clock at enable *)
  p_gc0 : Gc.stat; (* quick_stat at enable; report subtracts *)
}

type prof_category = { pc_name : string; pc_dispatches : int; pc_wall_s : float }

type prof_report = {
  pr_categories : prof_category list;
  pr_dispatches : int;
  pr_samples : int;
  pr_wall_s : float;
  pr_minor_words : float;
  pr_major_words : float;
  pr_promoted_words : float;
  pr_minor_collections : int;
  pr_major_collections : int;
  pr_pool_hw : int;
  pr_queue : Wheel.stats;
}

(* [clock] and [cur_stamp] are fields 0 and 1: [now] and [current_stamp]
   are loads ([%field0], [%field1]). *)
type t = {
  mutable clock : Time.t;
  (* FIFO stamp of the event being (or last) dispatched: -1 before the
     first, [max_int] once a [run] returned, when every event at or
     before the clock has had its turn *)
  mutable cur_stamp : int;
  queue : (unit -> unit) Queue.t;
  mutable executed : int;
  mutable cancelled : int; (* dead events still queued *)
  mutable running : bool;
  (* observability hooks, both off by default; [plain] caches "both off"
     so the dispatch path pays one load + branch *)
  mutable plain : bool;
  mutable prof : prof option;
  mutable escape : (exn -> unit) option;
}

type engine = t

external now : t -> Time.t = "%field0"
external current_stamp : t -> int = "%field1"

let make ~start queue =
  {
    clock = start;
    cur_stamp = -1;
    queue;
    executed = 0;
    cancelled = 0;
    running = false;
    plain = true;
    prof = None;
    escape = None;
  }

let create ?(start = 0) () = make ~start (Queue.create ~start ~dummy:dead ())

(* nothing is ever queued on it, so a bare heap does *)
let inert = make ~start:0 (Queue.create ~slots:0 ~dummy:dead ())

(* ---- observability hooks ----------------------------------------------- *)

let categories = [| "other"; "timer"; "net"; "cm" |]

let category_index cat =
  let rec go i = if i >= Array.length categories then 0 else if categories.(i) = cat then i else go (i + 1) in
  go 0

let sample_shift = 10 (* one gettimeofday per 1024 dispatches *)

let enable_prof t =
  let now_w = Unix.gettimeofday () in
  t.prof <-
    Some
      {
        p_names = categories;
        p_dispatch = Array.make (Array.length categories) 0;
        p_wall = Array.make (Array.length categories) 0.;
        p_cur = 0;
        p_mask = (1 lsl sample_shift) - 1;
        p_samples = 0;
        p_last = now_w;
        p_t0 = now_w;
        p_gc0 = Gc.quick_stat ();
      };
  t.plain <- false

(* Identity when the profiler is off, so call sites tag their one
   long-lived closure unconditionally at creation time. *)
let prof_tag t ~cat fn =
  match t.prof with
  | None -> fn
  | Some p ->
      let idx = category_index cat in
      fun () ->
        p.p_cur <- idx;
        fn ()

let prof_report t =
  match t.prof with
  | None -> None
  | Some p ->
      let gc = Gc.quick_stat () in
      Some
        {
          pr_categories =
            Array.to_list
              (Array.mapi
                 (fun i name ->
                   { pc_name = name; pc_dispatches = p.p_dispatch.(i); pc_wall_s = p.p_wall.(i) })
                 p.p_names);
          pr_dispatches = Array.fold_left ( + ) 0 p.p_dispatch;
          pr_samples = p.p_samples;
          pr_wall_s = Unix.gettimeofday () -. p.p_t0;
          pr_minor_words = gc.Gc.minor_words -. p.p_gc0.Gc.minor_words;
          pr_major_words = gc.Gc.major_words -. p.p_gc0.Gc.major_words;
          pr_promoted_words = gc.Gc.promoted_words -. p.p_gc0.Gc.promoted_words;
          pr_minor_collections = gc.Gc.minor_collections - p.p_gc0.Gc.minor_collections;
          pr_major_collections = gc.Gc.major_collections - p.p_gc0.Gc.major_collections;
          pr_pool_hw = t.queue.Queue.n_ids;
          pr_queue = Queue.stats t.queue;
        }

let set_escape_hook t hook =
  t.escape <- hook;
  t.plain <- t.prof = None && t.escape = None

let pool_hw t = t.queue.Queue.n_ids
let queue_stats t = Queue.stats t.queue

(* Dispatch one callback under the active hooks: an escaping exception
   is reported to the escape hook and re-raised, and the profiler charges
   the dispatch. *)
let dispatch t f =
  if t.plain then f ()
  else begin
    (match t.escape with
    | None -> f ()
    | Some h -> (
        try f ()
        with e ->
          h e;
          raise e));
    match t.prof with
    | None -> ()
    | Some p ->
        p.p_dispatch.(p.p_cur) <- p.p_dispatch.(p.p_cur) + 1;
        if t.executed land p.p_mask = 0 then begin
          let now_w = Unix.gettimeofday () in
          p.p_wall.(p.p_cur) <- p.p_wall.(p.p_cur) +. (now_w -. p.p_last);
          p.p_last <- now_w;
          p.p_samples <- p.p_samples + 1
        end;
        p.p_cur <- 0
  end

let check_future t ~what when_ =
  if when_ < t.clock then
    invalid_arg
      (Format.asprintf "Engine.%s: %a is in the past (now %a)" what Time.pp when_ Time.pp t.clock)

let schedule_at t when_ fn =
  check_future t ~what:"schedule_at" when_;
  let seq = Queue.reserve_seq t.queue in
  { hid = Queue.push t.queue ~time:when_ ~seq fn; h_seq = seq }

let schedule_after t d fn = schedule_at t (Time.add t.clock (Int.max d 0)) fn

(* [schedule_after] without the handle: same queue position and seq *)
let post t d fn =
  let q = t.queue in
  ignore (Queue.push q ~time:(Time.add t.clock (Int.max d 0)) ~seq:(Queue.reserve_seq q) fn)

let live t h =
  let q = t.queue in
  Queue.seq q h.hid = h.h_seq && Queue.mem q h.hid && Queue.value q h.hid != dead

(* seq -1 is never a queue seq, so this handle is never live *)
let unscheduled () = { hid = 0; h_seq = -1 }

(* Compact once dead entries dominate: rare (amortized O(1) per cancel),
   and only worthwhile when cancelled events would otherwise linger far in
   the future.  The filter puts the ids it drops on the free list. *)
let maybe_compact t =
  if t.cancelled > 64 && t.cancelled > t.queue.Queue.size / 2 then begin
    Queue.filter_in_place t.queue (fun fn -> fn != dead);
    t.cancelled <- 0
  end

let cancel t h =
  live t h
  && begin
       t.queue.Queue.vals.(h.hid) <- dead;
       t.cancelled <- t.cancelled + 1;
       maybe_compact t;
       true
     end

let reserve_stamp t = Queue.reserve_seq t.queue

let post_stamped t when_ ~stamp fn =
  check_future t ~what:"post_stamped" when_;
  ignore (Queue.push t.queue ~time:when_ ~seq:stamp fn)

(* The lazy re-arm behind [Timer].  The handle's event, if still queued
   (live, or cancelled and not yet surfaced), is made live again running
   [fn]; it stays where it is when it is due strictly before [when_] —
   its owner re-queues it at [(when_, stamp)] when it fires early — and is
   re-keyed to exactly [(when_, stamp)] otherwise.  A handle whose event
   has left the queue takes a free id at [(when_, stamp)]. *)
let rearm t h when_ ~stamp fn =
  check_future t ~what:"rearm" when_;
  let q = t.queue and id = h.hid in
  if Queue.seq q id = h.h_seq && Queue.mem q id then begin
    let v = Queue.value q id in
    if v != fn then begin
      if v == dead then t.cancelled <- t.cancelled - 1;
      q.Queue.vals.(id) <- fn
    end;
    if h.h_seq <> stamp && Queue.time q id >= when_ then begin
      Queue.rekey q id ~time:when_ ~seq:stamp;
      h.h_seq <- stamp
    end
  end
  else begin
    h.hid <- Queue.push q ~time:when_ ~seq:stamp fn;
    h.h_seq <- stamp
  end

let pending t = t.queue.Queue.size - t.cancelled

(* Pop the root of [h] (the minimum just found) and run it, or discard it
   if dead.  [false] for a dead event. *)
let fire t h =
  let q = t.queue in
  let id = h.Queue.parr.(0) in
  let f = q.Queue.vals.(id) in
  let time = h.pkey.(0) and stamp = h.pkey.(1) in
  Queue.pop_root q h;
  Queue.drop q id;
  if f == dead then begin
    t.cancelled <- t.cancelled - 1;
    false
  end
  else begin
    t.clock <- time;
    t.cur_stamp <- stamp;
    t.executed <- t.executed + 1;
    dispatch t f;
    true
  end

let rec step t = t.queue.Queue.size > 0 && (fire t (Queue.min_heap t.queue) || step t)

(* The run loop peeks before popping so an event past [until] stays
   queued (a dead one is discarded whatever its time); [limit] is a
   sentinel, so the per-event test is one integer compare. *)
let run ?until t =
  if t.running then invalid_arg "Engine.run: reentrant run";
  t.running <- true;
  let limit = match until with Some l -> l | None -> max_int in
  let q = t.queue in
  Fun.protect
    ~finally:(fun () -> t.running <- false)
    (fun () ->
      let continue = ref true in
      while !continue do
        if q.Queue.size = 0 then continue := false
        else begin
          let h = Queue.min_heap q in
          if h.Queue.pkey.(0) <= limit || q.vals.(h.parr.(0)) == dead then ignore (fire t h : bool)
          else continue := false
        end
      done;
      t.cur_stamp <- max_int;
      if limit <> max_int && limit > t.clock then t.clock <- limit)

let run_for t d = run ~until:(Time.add t.clock d) t
let events_executed t = t.executed

(* ---- timers ------------------------------------------------------------- *)

module Timer = struct
  (* One handle and one fire closure, both made in [create], serve every
     arm, so arming, stopping and firing allocate nothing.  The target is
     the key [(expiry, stamp)] an eager timer's event would carry: [stamp]
     is reserved at the arm, where an eager arm takes its seq.  The queued
     event may lie earlier than the target (a re-arm to a later expiry
     leaves it in place); when it fires early it re-queues at the target
     instead of running the callback. *)
  type state = Stopped | Armed | Parked

  type t = {
    engine : engine;
    handle : handle;
    mutable state : state;
    mutable expiry : Time.t; (* target time: pending when [Armed], next phase when [Parked] *)
    mutable stamp : int; (* target FIFO stamp *)
    mutable period : Time.span; (* 0 = one-shot *)
    mutable fire : unit -> unit;
  }

  let queue t = rearm t.engine t.handle t.expiry ~stamp:t.stamp t.fire

  let arm_at t when_ =
    t.state <- Armed;
    t.expiry <- when_;
    t.stamp <- reserve_stamp t.engine;
    queue t

  let create engine ~callback =
    let t =
      {
        engine;
        handle = unscheduled ();
        state = Stopped;
        expiry = 0;
        stamp = -1;
        period = 0;
        fire = ignore;
      }
    in
    t.fire <-
      prof_tag engine ~cat:"timer"
      @@ (fun () ->
          if current_stamp t.engine <> t.stamp then queue t
          else begin
            (* a periodic timer takes its next stamp before the callback, where
               an eager re-arm would; ticks fall at exactly [start + k*period] *)
            if t.period > 0 then begin
              t.expiry <- Time.add t.expiry t.period;
              t.stamp <- reserve_stamp t.engine
            end
            else t.state <- Stopped;
            callback ();
            (* unless the callback stopped, parked or re-armed the timer *)
            if t.state = Armed then queue t
          end);
    t

  let stop t =
    if t.state <> Stopped then begin
      if t.state = Armed then ignore (cancel t.engine t.handle);
      t.state <- Stopped;
      t.period <- 0
    end

  let arm t delay = arm_at t (Time.add (now t.engine) (Int.max delay 0))

  let start t delay =
    t.period <- 0;
    arm t delay

  let start_periodic t period =
    if period <= 0 then invalid_arg "Timer.start_periodic: period must be positive";
    t.period <- period;
    arm t period

  let park t =
    if t.period = 0 then invalid_arg "Timer.park: not a periodic timer";
    if t.state = Armed then begin
      ignore (cancel t.engine t.handle);
      t.state <- Parked
    end

  let wake t =
    if t.state = Parked then begin
      let now = now t.engine in
      if now < t.expiry || (now = t.expiry && current_stamp t.engine < t.stamp) then begin
        (* the next phase point has not had its turn: resume on it *)
        t.state <- Armed;
        queue t
      end
      else
        (* phase points were skipped: resume on the first one after now *)
        arm_at t (Time.add t.expiry (((Time.diff now t.expiry / t.period) + 1) * t.period))
    end

  let is_running t = t.state = Armed
  let expiry t = if t.state = Armed then Some t.expiry else None
end

(* ---- the CPU server ----------------------------------------------------- *)

module Cpu = struct
  type t = { engine : engine; mutable free_at : Time.t; mutable total_busy : Time.span }

  let create engine = { engine; free_at = now engine; total_busy = 0 }

  (* occupy the CPU for [cost] from when it frees; the finish time *)
  let occupy c cost =
    c.total_busy <- c.total_busy + cost;
    let finish = Time.add (Int.max (now c.engine) c.free_at) cost in
    c.free_at <- finish;
    finish

  let run c ~cost fn =
    if cost < 0 then invalid_arg "Cpu.run: negative cost";
    let now = now c.engine in
    let finish = occupy c cost in
    if finish <= now then fn () else post c.engine (finish - now) fn

  let charge c cost =
    if cost < 0 then invalid_arg "Cpu.charge: negative cost";
    ignore (occupy c cost : Time.t)

  let total_busy c = c.total_busy

  let utilization c ~since_busy ~since_time =
    let elapsed = Time.diff (now c.engine) since_time in
    if elapsed <= 0 then 0. else float_of_int (c.total_busy - since_busy) /. float_of_int elapsed
end
