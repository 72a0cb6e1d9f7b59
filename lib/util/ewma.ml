(* All-float record: OCaml stores it as a flat float block, so [update]
   mutates in place with no boxing.  [nan] doubles as the "no sample yet"
   state — nan <> nan, so the initialized test is one compare, and no
   finite sample can collide with the sentinel (an EWMA fed a nan sample
   would be poisoned under either representation). *)
type t = { gain : float; mutable value : float }

let create ~gain =
  if gain <= 0. || gain > 1. then invalid_arg "Ewma.create: gain must be in (0,1]";
  { gain; value = nan }

(* [update] is inlined into the two integer entry points below, so the
   sample they compute never leaves a register; a float argument passed
   across a module boundary is boxed, and so is a float result
   ([value]), because the build compiles every library with [-opaque] *)
let[@inline] update t x =
  if t.value = t.value then t.value <- ((1. -. t.gain) *. t.value) +. (t.gain *. x)
  else t.value <- x

let update_int t n = update t (float_of_int n)
let update_ratio t num den = update t (float_of_int num /. float_of_int den)

let value t = t.value
let int_value t = int_of_float t.value
let initialized t = t.value = t.value
let reset t = t.value <- nan
