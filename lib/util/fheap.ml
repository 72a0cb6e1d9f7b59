type 'a entry = {
  mutable prio : float;
  mutable seq : int; (* tie-break: FIFO among equal priorities *)
  value : 'a;
  mutable pos : int; (* index in [arr]; -1 once removed *)
}

type 'a handle = 'a entry

(* Empty slots hold a shared sentinel entry instead of [None], so the hot
   path never allocates or matches an option.  The sentinel's [value] is
   never read — every access is guarded by [len]. *)
let sentinel_block : unit entry = { prio = infinity; seq = max_int; value = (); pos = -1 }
let sentinel () : 'a entry = Obj.magic sentinel_block

type 'a t = {
  mutable arr : 'a entry array;
  mutable len : int;
  mutable next_seq : int;
}

let create () = { arr = Array.make 16 (sentinel ()); len = 0; next_seq = 0 }
let size h = h.len
let is_empty h = h.len = 0
let less a b = a.prio < b.prio || (a.prio = b.prio && a.seq < b.seq)

let set h i e =
  h.arr.(i) <- e;
  e.pos <- i

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    let e = h.arr.(i) and p = h.arr.(parent) in
    if less e p then begin
      set h parent e;
      set h i p;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.len && less h.arr.(l) h.arr.(!smallest) then smallest := l;
  if r < h.len && less h.arr.(r) h.arr.(!smallest) then smallest := r;
  if !smallest <> i then begin
    let a = h.arr.(i) and b = h.arr.(!smallest) in
    set h i b;
    set h !smallest a;
    sift_down h !smallest
  end

let grow h =
  if h.len = Array.length h.arr then begin
    let bigger = Array.make (2 * Array.length h.arr) (sentinel ()) in
    Array.blit h.arr 0 bigger 0 h.len;
    h.arr <- bigger
  end

let insert h ~prio value =
  grow h;
  let e = { prio; seq = h.next_seq; value; pos = h.len } in
  h.next_seq <- h.next_seq + 1;
  h.arr.(h.len) <- e;
  h.len <- h.len + 1;
  sift_up h (h.len - 1);
  e

let min_handle h = if h.len = 0 then invalid_arg "Fheap.min_handle: empty" else h.arr.(0)

let delete_at h i =
  let last = h.len - 1 in
  let victim = h.arr.(i) in
  victim.pos <- -1;
  if i = last then begin
    h.arr.(last) <- sentinel ();
    h.len <- last
  end
  else begin
    let moved = h.arr.(last) in
    h.arr.(last) <- sentinel ();
    h.len <- last;
    set h i moved;
    sift_down h i;
    sift_up h i
  end;
  victim

let pop_min h =
  if h.len = 0 then invalid_arg "Fheap.pop_min: empty" else delete_at h 0

let extract_min h =
  if h.len = 0 then None
  else begin
    let e = delete_at h 0 in
    Some (e.prio, e.value)
  end

let mem _h (hd : 'a handle) = hd.pos >= 0
let handle_value (hd : 'a handle) = hd.value

let remove h hd =
  if hd.pos < 0 then false
  else begin
    ignore (delete_at h hd.pos);
    true
  end

let update_prio h hd ~prio =
  if hd.pos < 0 then false
  else begin
    (* behaves like remove + fresh insert: the entry takes a new sequence
       number, so FIFO tie-breaking treats it as the newest arrival at
       [prio] — without the remove/insert churn (one sift, no allocation) *)
    hd.prio <- prio;
    hd.seq <- h.next_seq;
    h.next_seq <- h.next_seq + 1;
    sift_up h hd.pos;
    sift_down h hd.pos;
    true
  end

let shift_all h delta =
  (* a uniform shift preserves the (prio, seq) order of every pair, so the
     heap shape — and therefore the extraction order — is untouched *)
  for i = 0 to h.len - 1 do
    h.arr.(i).prio <- h.arr.(i).prio +. delta
  done

let clear h =
  for i = 0 to h.len - 1 do
    h.arr.(i).pos <- -1;
    h.arr.(i) <- sentinel ()
  done;
  h.len <- 0
