open Cm_util

type counter = { c_name : string; mutable c_count : int }
type gauge = { g_name : string; g_read : unit -> float }
type histogram = { h_name : string; h_hist : Stats.Histogram.t }

type entry = Counter of counter | Gauge of gauge | Histogram of histogram

type t = {
  by_name : (string, entry) Hashtbl.t;
  mutable rev_order : entry list; (* registration order, newest first *)
}

let create () = { by_name = Hashtbl.create 32; rev_order = [] }

let entry_name = function
  | Counter c -> c.c_name
  | Gauge g -> g.g_name
  | Histogram h -> h.h_name

let register t entry =
  let name = entry_name entry in
  if Hashtbl.mem t.by_name name then
    invalid_arg (Printf.sprintf "Metrics: %S is already registered" name);
  Hashtbl.replace t.by_name name entry;
  t.rev_order <- entry :: t.rev_order

let counter t name =
  match Hashtbl.find_opt t.by_name name with
  | Some (Counter c) -> c
  | Some _ -> invalid_arg (Printf.sprintf "Metrics.counter: %S is not a counter" name)
  | None ->
      let c = { c_name = name; c_count = 0 } in
      register t (Counter c);
      c

let incr ?(by = 1) c = c.c_count <- c.c_count + by
let count c = c.c_count

let gauge t name read =
  let g = { g_name = name; g_read = read } in
  register t (Gauge g);
  g

let sample g = g.g_read ()

let histogram t name =
  match Hashtbl.find_opt t.by_name name with
  | Some (Histogram h) -> h
  | Some _ -> invalid_arg (Printf.sprintf "Metrics.histogram: %S is not a histogram" name)
  | None ->
      let h = { h_name = name; h_hist = Stats.Histogram.create () } in
      register t (Histogram h);
      h

let observe h v = Stats.Histogram.observe h.h_hist v
let hist h = h.h_hist

let entries t = List.rev t.rev_order
let gauges t = List.filter_map (function Gauge g -> Some g | _ -> None) (entries t)

let reset t =
  List.iter
    (function
      | Counter c -> c.c_count <- 0
      | Histogram h -> Stats.Histogram.reset h.h_hist
      | Gauge _ -> ())
    t.rev_order

type snapshot_value =
  | Sc of int  (** counter value *)
  | Sg of float  (** gauge reading *)
  | Sh of Stats.Histogram.t  (** histogram (live; copy via merge if needed) *)

let snapshot t =
  List.map
    (function
      | Counter c -> (c.c_name, Sc c.c_count)
      | Gauge g -> (g.g_name, Sg (g.g_read ()))
      | Histogram h -> (h.h_name, Sh h.h_hist))
    (entries t)

let to_json t =
  let open Json in
  let value = function
    | Sc n -> Int n
    | Sg v -> Float v
    | Sh h ->
        (* an empty histogram has no min/max/quantiles: emit explicit
           nulls rather than the NaN/±inf sentinels the accumulator
           carries internally *)
        if Stats.Histogram.count h = 0 then
          Obj
            [
              ("count", Int 0);
              ("sum", Float 0.);
              ("min", Null);
              ("max", Null);
              ("p50", Null);
              ("p90", Null);
              ("p99", Null);
            ]
        else
          Obj
            [
              ("count", Int (Stats.Histogram.count h));
              ("sum", Float (Stats.Histogram.sum h));
              ("min", Float (Stats.Histogram.min_value h));
              ("max", Float (Stats.Histogram.max_value h));
              ("p50", Float (Stats.Histogram.quantile h 0.5));
              ("p90", Float (Stats.Histogram.quantile h 0.9));
              ("p99", Float (Stats.Histogram.quantile h 0.99));
            ]
  in
  Obj (List.map (fun (name, v) -> (name, value v)) (snapshot t))
