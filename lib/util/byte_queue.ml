(* Ring buffer: [items.(head)] .. [items.(head + len - 1)] (indices mod the
   capacity, a power of two) are live; every other slot holds [dummy], so
   a removed element is never kept reachable by the array. *)
type 'a t = {
  dummy : 'a;
  mutable items : 'a array;
  mutable sizes : int array;
  mutable head : int;
  mutable len : int;
  mutable bytes : int;
}

let create ~dummy () = { dummy; items = [||]; sizes = [||]; head = 0; len = 0; bytes = 0 }

(* called on a full ring: double the capacity (first push: 8 slots),
   unwrapping the live run [head .. cap - 1], [0 .. head - 1] to start at
   index 0 *)
let grow t =
  let cap = Array.length t.items in
  let ncap = if cap = 0 then 8 else 2 * cap in
  let items = Array.make ncap t.dummy in
  let sizes = Array.make ncap 0 in
  let tail = cap - t.head in
  Array.blit t.items t.head items 0 tail;
  Array.blit t.sizes t.head sizes 0 tail;
  Array.blit t.items 0 items tail t.head;
  Array.blit t.sizes 0 sizes tail t.head;
  t.items <- items;
  t.sizes <- sizes;
  t.head <- 0

let push t ~size value =
  if t.len = Array.length t.items then grow t;
  let i = (t.head + t.len) land (Array.length t.items - 1) in
  t.items.(i) <- value;
  t.sizes.(i) <- size;
  t.len <- t.len + 1;
  t.bytes <- t.bytes + size

(* advance past the head slot, releasing it; the caller has read the
   slot and checked [len > 0] *)
let release t =
  let i = t.head in
  t.items.(i) <- t.dummy;
  t.head <- (i + 1) land (Array.length t.items - 1);
  t.len <- t.len - 1;
  t.bytes <- t.bytes - t.sizes.(i)

let pop t =
  if t.len = 0 then None
  else begin
    let v = t.items.(t.head) in
    release t;
    Some v
  end

let take t =
  if t.len = 0 then invalid_arg "Byte_queue.take: empty queue";
  let v = t.items.(t.head) in
  release t;
  v

let take_last t =
  if t.len = 0 then invalid_arg "Byte_queue.take_last: empty queue";
  let i = (t.head + t.len - 1) land (Array.length t.items - 1) in
  let v = t.items.(i) in
  t.items.(i) <- t.dummy;
  t.len <- t.len - 1;
  t.bytes <- t.bytes - t.sizes.(i);
  v

let peek t = if t.len = 0 then None else Some t.items.(t.head)

let drop_head t =
  if t.len = 0 then None
  else begin
    let i = t.head in
    let head = (t.items.(i), t.sizes.(i)) in
    release t;
    Some head
  end

let length t = t.len
let bytes t = t.bytes
let is_empty t = t.len = 0

let iter f t =
  let mask = Array.length t.items - 1 in
  for k = 0 to t.len - 1 do
    f t.items.((t.head + k) land mask)
  done

let clear t =
  Array.fill t.items 0 (Array.length t.items) t.dummy;
  t.head <- 0;
  t.len <- 0;
  t.bytes <- 0
