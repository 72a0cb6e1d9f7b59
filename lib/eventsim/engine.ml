open Cm_util

(* The queue is a hashed timing wheel ({!Cm_util.Wheel}): near-future
   events — timer re-arms, packet deliveries and link drains, grant
   callbacks, all within a few RTTs — insert and cancel in O(1) wheel
   slots, while far-future events overflow into a heap and migrate
   forward as the wheel turns.  The wheel's pop order is exactly the
   (time, seq) order of a single heap over the same keys.

   The callback is stored directly as the wheel entry's value — no event
   record between the queue entry and the closure, so the pop path
   touches one block, not two.  Cancellation overwrites it with the
   shared [dead] closure, so cancel is O(1) (lazy: the entry stays queued
   and is skipped when it reaches the top).  Execution writes nothing: a
   fired entry has left the queue, which [live] reads from the wheel, and
   keeps its closure until the pool hands the entry to a new event —
   clearing it would cost a write barrier per event.

   Queue entries are pooled: once an event has been popped (executed or
   found dead), its entry goes on a free list and the next [schedule_*]
   reuses it via {!Wheel.reinsert}.  Without the pool a deep queue
   promotes one entry per event out of the minor heap — at thousands of
   outstanding events the GC promotion traffic, not the sift depth, is
   what makes per-event cost grow with queue depth.  The pool is bounded
   by the number of still-queued events (floor 64), so a transient burst
   does not retain its peak memory forever.  The wheel's own sequence
   number makes reuse safe: a handle captures the entry's seq at
   schedule time; seqs are unique over the wheel's lifetime and
   refreshed on every reinsert, so cancel on a stale handle
   (its entry since recycled for a newer event) sees a seq mismatch and
   reports [false], exactly as the unpooled engine reported [false] for
   an already-fired event.

   A handle's [entry] is mutable so that one handle can name a series of
   events: {!rearm} points a handle whose entry has left the queue at a
   pooled one, which is how a timer re-arms for life without building a
   handle per arm. *)
type handle = { mutable entry : (unit -> unit) Wheel.handle; mutable h_seq : int }

let dead : unit -> unit = fun () -> ()

(* filler for unused pool slots: an entry that is never queued *)
let null_entry : (unit -> unit) Wheel.handle = Wheel.detached dead

(* Sampling profiler state (see [enable_prof]).  Dispatch counters are
   exact per category; wall-clock is attributed by sampling: every
   [2^sample_shift] dispatches the interval since the previous sample is
   charged to the category of the event that just ran, so a run's wall
   time splits across categories at bounded cost (one [land] + compare
   per event, one [Unix.gettimeofday] per sample window). *)
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

type t = {
  mutable clock : Time.t;
  queue : (unit -> unit) Wheel.t;
  mutable pool : (unit -> unit) Wheel.handle array; (* popped entries awaiting reuse *)
  mutable pool_len : int; (* stack: pool.(0 .. pool_len-1) are live *)
  mutable pool_hw : int; (* high-water of [pool_len] *)
  mutable executed : int;
  mutable cancelled : int; (* dead events still sitting in [queue] *)
  mutable clamped : int; (* negative-delay schedules clamped to "now" *)
  mutable running : bool;
  (* FIFO stamp of the event being (or last) dispatched: -1 before the
     first, [max_int] once a [run] returned, when every event at or
     before the clock has had its turn *)
  mutable cur_stamp : int;
  (* observability hooks, both off by default; [plain] caches "both off"
     so the dispatch hot path pays one load + branch *)
  mutable plain : bool;
  mutable prof : prof option;
  mutable escape : (exn -> unit) option;
}

let make ~start queue pool =
  {
    clock = start;
    queue;
    pool;
    pool_len = 0;
    pool_hw = 0;
    executed = 0;
    cancelled = 0;
    clamped = 0;
    running = false;
    cur_stamp = -1;
    plain = true;
    prof = None;
    escape = None;
  }

let create ?(start = Time.zero) () =
  make ~start (Wheel.create ~start ~dummy:dead ()) (Array.make 64 null_entry)

(* nothing is ever queued on it, so a bare heap and an empty pool do *)
let inert = make ~start:Time.zero (Wheel.create ~slots:0 ~dummy:dead ()) [||]

let now t = t.clock

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

let prof_enabled t = t.prof <> None

(* Wrap an event callback so dispatches (and sampled wall time) are
   charged to [cat].  Identity when the profiler is off, so call sites tag
   their one long-lived closure unconditionally at creation time; only a
   profiled run pays the extra closure.  Untagged events count as
   "other". *)
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
          pr_pool_hw = t.pool_hw;
          pr_queue = Wheel.stats t.queue;
        }

let set_escape_hook t hook =
  t.escape <- hook;
  t.plain <- t.prof = None && t.escape = None

let pool_hw t = t.pool_hw
let queue_stats t = Wheel.stats t.queue

(* Dispatch one event callback under the active hooks.  [plain] runs are
   the direct call; otherwise an escaping exception is reported to the
   escape hook (then re-raised — the recorder dumps, the failure still
   propagates), and the profiler charges the dispatch. *)
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

(* Pool bound: enough cells to recycle the whole standing queue, but a
   burst's worth of surplus cells is released as the queue drains. *)
let pool_put t entry =
  let cap = Int.max 64 (Wheel.size t.queue) in
  if t.pool_len < cap then begin
    if t.pool_len = Array.length t.pool then begin
      let grown = Array.make (2 * t.pool_len) null_entry in
      Array.blit t.pool 0 grown 0 t.pool_len;
      t.pool <- grown
    end;
    t.pool.(t.pool_len) <- entry;
    t.pool_len <- t.pool_len + 1;
    if t.pool_len > t.pool_hw then t.pool_hw <- t.pool_len
  end
  else
    while t.pool_len > cap do
      t.pool_len <- t.pool_len - 1;
      t.pool.(t.pool_len) <- null_entry
    done

let pool_size t = t.pool_len

(* [fn] in a pooled entry, or a fresh one, not yet queued.  The popped
   pool cell keeps its stale pointer (no write barrier per schedule); the
   shrink loop in [pool_put] clears the cells it releases. *)
let take_entry t fn =
  if t.pool_len > 0 then begin
    t.pool_len <- t.pool_len - 1;
    let entry = t.pool.(t.pool_len) in
    Wheel.set_handle_value entry fn;
    entry
  end
  else Wheel.detached fn

let enqueue t when_ fn =
  let entry = take_entry t fn in
  Wheel.reinsert t.queue entry ~time:when_;
  entry

let check_future t ~what when_ =
  if when_ < t.clock then
    invalid_arg
      (Format.asprintf "Engine.%s: %a is in the past (now %a)" what Time.pp when_ Time.pp t.clock)

let schedule_at t when_ fn =
  check_future t ~what:"schedule_at" when_;
  let entry = enqueue t when_ fn in
  { entry; h_seq = Wheel.handle_seq entry }

let schedule_after t d fn =
  if d < 0 then t.clamped <- t.clamped + 1;
  schedule_at t (Time.add t.clock (Int.max d 0)) fn

(* Fire-and-forget schedule: same queue behaviour as [schedule_after]
   (including the seq sequence, so pop order is unchanged), but no
   handle record is built — the allocation-free path for callers that
   never cancel, which is every per-grant and per-cycle event. *)
let post t d fn =
  if d < 0 then t.clamped <- t.clamped + 1;
  ignore (enqueue t (Time.add t.clock (Int.max d 0)) fn)

(* A handle is live iff its entry has not been recycled or re-keyed
   since the handle was made (seq matches — seqs are never reused), is
   still queued (it has not fired) and has not been cancelled. *)
let live t h =
  Wheel.handle_seq h.entry = h.h_seq
  && Wheel.mem t.queue h.entry
  && Wheel.handle_value h.entry != dead

(* seq -1 is never a wheel seq, so this handle is never live *)
let unscheduled () = { entry = null_entry; h_seq = -1 }

(* Compact once dead entries dominate: rare (amortized O(1) per cancel),
   and only worthwhile when cancelled events would otherwise linger far in
   the future, e.g. stopped timers that no restart revived.  Entries the
   filter drops are simply GC'd rather than pooled. *)
let maybe_compact t =
  if t.cancelled > 64 && t.cancelled > Wheel.size t.queue / 2 then begin
    Wheel.filter_in_place t.queue (fun fn -> fn != dead);
    t.cancelled <- 0
  end

let cancel t h =
  if not (live t h) then false
  else begin
    Wheel.set_handle_value h.entry dead;
    t.cancelled <- t.cancelled + 1;
    maybe_compact t;
    true
  end

let reserve_stamp t = Wheel.reserve_seq t.queue
let current_stamp t = t.cur_stamp

let post_stamped t when_ ~stamp fn =
  check_future t ~what:"post_stamped" when_;
  Wheel.rekey t.queue (take_entry t fn) ~time:when_ ~seq:stamp

(* The lazy re-arm behind {!Timer}.  The handle's entry, if still queued
   (live, or cancelled and not yet surfaced), is made live again running
   [fn]; it stays where it is when it is due strictly before [when_] —
   its owner re-queues it at [(when_, stamp)] when it fires early — and is
   re-keyed to exactly [(when_, stamp)] otherwise.  A handle whose entry
   has left the queue takes a pooled entry at [(when_, stamp)], so a
   start/stop/start cycle allocates nothing. *)
let rearm t h when_ ~stamp fn =
  check_future t ~what:"rearm" when_;
  let e = h.entry in
  if Wheel.handle_seq e = h.h_seq && Wheel.mem t.queue e then begin
    if Wheel.handle_value e == dead then t.cancelled <- t.cancelled - 1;
    Wheel.set_handle_value e fn;
    if h.h_seq <> stamp && Wheel.handle_time e >= when_ then begin
      Wheel.rekey t.queue e ~time:when_ ~seq:stamp;
      h.h_seq <- stamp
    end
  end
  else begin
    let entry = take_entry t fn in
    Wheel.rekey t.queue entry ~time:when_ ~seq:stamp;
    h.entry <- entry;
    h.h_seq <- stamp
  end

let pending t = Wheel.size t.queue - t.cancelled

let rec step t =
  if Wheel.is_empty t.queue then false
  else begin
    let entry = Wheel.pop_min t.queue in
    let f = Wheel.handle_value entry in
    pool_put t entry;
    if f == dead then begin
      t.cancelled <- t.cancelled - 1;
      step t
    end
    else begin
      t.clock <- Wheel.handle_time entry;
      t.cur_stamp <- Wheel.handle_seq entry;
      t.executed <- t.executed + 1;
      dispatch t f;
      true
    end
  end

(* The run loop peeks (O(1), no allocation) before popping so an event
   past [until] stays queued; [limit] is hoisted to a sentinel so the
   per-event path is a single integer compare instead of an option
   match. *)
let run ?until t =
  if t.running then invalid_arg "Engine.run: reentrant run";
  t.running <- true;
  let limit = match until with Some l -> l | None -> max_int in
  Fun.protect
    ~finally:(fun () -> t.running <- false)
    (fun () ->
      let continue = ref true in
      while !continue do
        if Wheel.is_empty t.queue then continue := false
        else begin
          let entry = Wheel.min_handle t.queue in
          let f = Wheel.handle_value entry in
          if f == dead then begin
            ignore (Wheel.pop_min t.queue);
            pool_put t entry;
            t.cancelled <- t.cancelled - 1
          end
          else begin
            let when_ = Wheel.handle_time entry in
            if when_ > limit then continue := false
            else begin
              ignore (Wheel.pop_min t.queue);
              pool_put t entry;
              t.clock <- when_;
              t.cur_stamp <- Wheel.handle_seq entry;
              t.executed <- t.executed + 1;
              dispatch t f
            end
          end
        end
      done;
      t.cur_stamp <- max_int;
      if limit <> max_int && limit > t.clock then t.clock <- limit)

let run_for t d = run ~until:(Time.add t.clock d) t
let events_executed t = t.executed
let schedules_clamped t = t.clamped
