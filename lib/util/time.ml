type t = int
type span = int

let zero = 0
let ns n = n
let us n = n * 1_000
let ms n = n * 1_000_000
let sec s = int_of_float (Float.round (s *. 1e9))
let minutes m = sec (m *. 60.)
let to_float_s t = float_of_int t /. 1e9
let to_float_ms t = float_of_int t /. 1e6
let to_float_us t = float_of_int t /. 1e3
let add t d = t + d
let diff a b = a - b
let min (a : t) b = Int.min a b
let max (a : t) b = Int.max a b
let compare (a : t) b = Int.compare a b

let pp fmt t =
  let a = abs t in
  if a < 1_000 then Format.fprintf fmt "%dns" t
  else if a < 1_000_000 then Format.fprintf fmt "%.2fus" (to_float_us t)
  else if a < 1_000_000_000 then Format.fprintf fmt "%.3fms" (to_float_ms t)
  else Format.fprintf fmt "%.4fs" (to_float_s t)
