open Cm_util

type t = {
  min_rto : Time.span;
  mutable srtt : float;
  mutable rttvar : float;
  mutable valid : bool;
  mutable shift : int; (* backoff exponent *)
}

let initial_rto = Time.ms 1_000
let max_rto = Time.sec 120.

let create ?(min_rto = Time.ms 200) () =
  { min_rto; srtt = 0.; rttvar = 0.; valid = false; shift = 0 }

let observe t sample =
  if sample <= 0 then invalid_arg "Rto.observe: sample must be positive";
  let s = float_of_int sample in
  if not t.valid then begin
    t.srtt <- s;
    t.rttvar <- s /. 2.;
    t.valid <- true
  end
  else begin
    t.rttvar <- (0.75 *. t.rttvar) +. (0.25 *. Float.abs (t.srtt -. s));
    t.srtt <- (0.875 *. t.srtt) +. (0.125 *. s)
  end;
  t.shift <- 0

let base_rto t =
  if not t.valid then initial_rto
  else begin
    let r = int_of_float (t.srtt +. Float.max (4. *. t.rttvar) 1e6) in
    Stdlib.max t.min_rto r
  end

let rto t =
  let r = base_rto t lsl t.shift in
  Stdlib.min max_rto (Stdlib.max t.min_rto r)

let backoff t = if t.shift < 12 then t.shift <- t.shift + 1
let srtt t = if t.valid then Some (int_of_float t.srtt) else None
let rttvar t = if t.valid then Some (int_of_float t.rttvar) else None
let reset_backoff t = t.shift <- 0
