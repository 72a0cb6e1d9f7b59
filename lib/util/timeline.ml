type point = { time : Time.t; value : float }
type t = { mutable rev_points : point list; mutable n : int }

let create () = { rev_points = []; n = 0 }

let record t time value =
  t.rev_points <- { time; value } :: t.rev_points;
  t.n <- t.n + 1

let points t = List.rev t.rev_points
let length t = t.n
let last t = match t.rev_points with [] -> None | p :: _ -> Some p

let rate_series t ~bin ~until =
  if bin <= 0 then invalid_arg "Timeline.rate_series: bin must be positive";
  let nbins = ((until - 1) / bin) + 1 in
  let nbins = Stdlib.max nbins 0 in
  let sums = Array.make nbins 0. in
  let add p =
    if p.time >= 0 && p.time < until then begin
      let i = p.time / bin in
      if i >= 0 && i < nbins then sums.(i) <- sums.(i) +. p.value
    end
  in
  List.iter add t.rev_points;
  let bin_s = Time.to_float_s bin in
  List.init nbins (fun i -> (i * bin, sums.(i) /. bin_s))

let sampled_series t ~bin ~until =
  if bin <= 0 then invalid_arg "Timeline.sampled_series: bin must be positive";
  let pts = points t in
  let nbins = if until <= 0 then 0 else ((until - 1) / bin) + 1 in
  let rec walk pts current i acc =
    if i >= nbins then List.rev acc
    else begin
      let boundary = i * bin in
      match pts with
      | p :: rest when p.time <= boundary -> walk rest p.value i acc
      | _ -> walk pts current (i + 1) ((boundary, current) :: acc)
    end
  in
  walk pts nan 0 []

let changes t =
  match points t with
  | [] -> 0
  | p0 :: rest ->
      fst
        (List.fold_left
           (fun (n, prev) p -> if p.value <> prev then (n + 1, p.value) else (n, prev))
           (0, p0.value) rest)
