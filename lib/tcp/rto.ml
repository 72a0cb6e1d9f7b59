open Cm_util

(* The estimates live in an all-float record, which OCaml stores as a
   flat float block: a store into a float field of a mixed record boxes
   the float, one allocation per RTT sample. *)
type est = { mutable srtt : float; mutable rttvar : float }

type t = {
  min_rto : Time.span;
  est : est;
  mutable valid : bool;
  mutable shift : int; (* backoff exponent *)
}

let initial_rto = Time.ms 1_000
let max_rto = Time.sec 120.

let create ?(min_rto = Time.ms 200) () =
  { min_rto; est = { srtt = 0.; rttvar = 0. }; valid = false; shift = 0 }

let observe t sample =
  if sample <= 0 then invalid_arg "Rto.observe: sample must be positive";
  let s = float_of_int sample in
  let e = t.est in
  if not t.valid then begin
    e.srtt <- s;
    e.rttvar <- s /. 2.;
    t.valid <- true
  end
  else begin
    e.rttvar <- (0.75 *. e.rttvar) +. (0.25 *. Float.abs (e.srtt -. s));
    e.srtt <- (0.875 *. e.srtt) +. (0.125 *. s)
  end;
  t.shift <- 0

let base_rto t =
  if not t.valid then initial_rto
  else begin
    let r = int_of_float (t.est.srtt +. Float.max (4. *. t.est.rttvar) 1e6) in
    Int.max t.min_rto r
  end

let rto t =
  let r = base_rto t lsl t.shift in
  Int.min max_rto (Int.max t.min_rto r)

let backoff t = if t.shift < 12 then t.shift <- t.shift + 1
let srtt t = if t.valid then Some (int_of_float t.est.srtt) else None
let rttvar t = if t.valid then Some (int_of_float t.est.rttvar) else None
let reset_backoff t = t.shift <- 0
