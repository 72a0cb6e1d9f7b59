type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable min_v : float;
  mutable max_v : float;
  mutable sum : float;
}

let create () = { n = 0; mean = 0.; m2 = 0.; min_v = nan; max_v = nan; sum = 0. }

let add t x =
  t.n <- t.n + 1;
  t.sum <- t.sum +. x;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if t.n = 1 then begin
    t.min_v <- x;
    t.max_v <- x
  end
  else begin
    if x < t.min_v then t.min_v <- x;
    if x > t.max_v then t.max_v <- x
  end

let count t = t.n
let mean t = if t.n = 0 then nan else t.mean
let variance t = if t.n < 2 then 0. else t.m2 /. float_of_int (t.n - 1)
let stddev t = sqrt (variance t)
let min_value t = t.min_v
let max_value t = t.max_v
let sum t = t.sum

let merge a b =
  if a.n = 0 then { b with n = b.n }
  else if b.n = 0 then { a with n = a.n }
  else begin
    let n = a.n + b.n in
    let delta = b.mean -. a.mean in
    let mean = a.mean +. (delta *. float_of_int b.n /. float_of_int n) in
    let m2 =
      a.m2 +. b.m2 +. (delta *. delta *. float_of_int a.n *. float_of_int b.n /. float_of_int n)
    in
    {
      n;
      mean;
      m2;
      min_v = Stdlib.min a.min_v b.min_v;
      max_v = Stdlib.max a.max_v b.max_v;
      sum = a.sum +. b.sum;
    }
  end

let percentile samples p =
  let n = Array.length samples in
  if n = 0 then nan
  else begin
    let sorted = Array.copy samples in
    Array.sort Float.compare sorted;
    if n = 1 then sorted.(0)
    else begin
      let rank = p /. 100. *. float_of_int (n - 1) in
      let lo = int_of_float (Float.of_int (int_of_float rank)) in
      let lo = Stdlib.max 0 (Stdlib.min (n - 2) lo) in
      let frac = rank -. float_of_int lo in
      sorted.(lo) +. (frac *. (sorted.(lo + 1) -. sorted.(lo)))
    end
  end

let median s = percentile s 50.

let pp fmt t =
  Format.fprintf fmt "n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g" t.n (mean t) (stddev t) t.min_v
    t.max_v

module Histogram = struct
  (* Log-bucketed histogram: bucket [i] counts values in (2^(i-1+lo_exp),
     2^(i+lo_exp)]; values <= 2^lo_exp land in bucket 0.  [frexp] gives the
     bucket index in O(1) with no floating-point log, so [observe] is safe
     on hot paths. *)

  let lo_exp = -20 (* smallest distinguished magnitude: 2^-20 ~ 1e-6 *)
  let nbuckets = 64 (* covers up to 2^43 ~ 8.8e12 before clamping *)

  type h = {
    buckets : int array;
    mutable hn : int;
    mutable hsum : float;
    mutable hmin : float;
    mutable hmax : float;
  }

  type t = h

  let create () =
    { buckets = Array.make nbuckets 0; hn = 0; hsum = 0.; hmin = nan; hmax = nan }

  let bucket_of x =
    if not (x > 0.) then 0
    else begin
      let _, e = Float.frexp x in
      (* x in [2^(e-1), 2^e) -> upper bound 2^e *)
      Stdlib.max 0 (Stdlib.min (nbuckets - 1) (e - lo_exp))
    end

  let upper_bound i = Float.ldexp 1. (i + lo_exp)
  let lower_bound i = if i = 0 then 0. else upper_bound (i - 1)

  let observe t x =
    let i = bucket_of x in
    t.buckets.(i) <- t.buckets.(i) + 1;
    t.hn <- t.hn + 1;
    t.hsum <- t.hsum +. x;
    if t.hn = 1 then begin
      t.hmin <- x;
      t.hmax <- x
    end
    else begin
      if x < t.hmin then t.hmin <- x;
      if x > t.hmax then t.hmax <- x
    end

  let count t = t.hn
  let sum t = t.hsum
  let min_value t = t.hmin
  let max_value t = t.hmax
  let mean t = if t.hn = 0 then nan else t.hsum /. float_of_int t.hn

  let reset t =
    Array.fill t.buckets 0 nbuckets 0;
    t.hn <- 0;
    t.hsum <- 0.;
    t.hmin <- nan;
    t.hmax <- nan

  let quantile t q =
    if t.hn = 0 then nan
    else begin
      let q = Float.max 0. (Float.min 1. q) in
      let target = q *. float_of_int t.hn in
      let rec walk i cum =
        if i >= nbuckets then t.hmax
        else begin
          let c = t.buckets.(i) in
          let cum' = cum + c in
          if float_of_int cum' >= target && c > 0 then begin
            (* linear interpolation inside the bucket's range *)
            let frac =
              if c = 0 then 0. else (target -. float_of_int cum) /. float_of_int c
            in
            let frac = Float.max 0. (Float.min 1. frac) in
            let lo = lower_bound i and hi = upper_bound i in
            let v = lo +. (frac *. (hi -. lo)) in
            (* the true extremes are tracked exactly; clamp the estimate *)
            Float.max t.hmin (Float.min t.hmax v)
          end
          else walk (i + 1) cum'
        end
      in
      walk 0 0
    end

  let merge a b =
    let t = create () in
    Array.blit a.buckets 0 t.buckets 0 nbuckets;
    Array.iteri (fun i c -> t.buckets.(i) <- t.buckets.(i) + c) b.buckets;
    t.hn <- a.hn + b.hn;
    t.hsum <- a.hsum +. b.hsum;
    (if a.hn = 0 then begin
       t.hmin <- b.hmin;
       t.hmax <- b.hmax
     end
     else if b.hn = 0 then begin
       t.hmin <- a.hmin;
       t.hmax <- a.hmax
     end
     else begin
       t.hmin <- Stdlib.min a.hmin b.hmin;
       t.hmax <- Stdlib.max a.hmax b.hmax
     end);
    t

  let pp fmt t =
    Format.fprintf fmt "n=%d mean=%.4g p50=%.4g p99=%.4g max=%.4g" t.hn (mean t)
      (quantile t 0.5) (quantile t 0.99) t.hmax
end
