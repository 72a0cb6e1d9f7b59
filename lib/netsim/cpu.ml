open Cm_util
open Eventsim

type t = { engine : Engine.t; mutable free_at : Time.t; mutable total_busy : Time.span }

let create engine = { engine; free_at = Engine.now engine; total_busy = 0 }

let run t ~cost fn =
  if cost < 0 then invalid_arg "Cpu.run: negative cost";
  let now = Engine.now t.engine in
  t.total_busy <- t.total_busy + cost;
  let start = Time.max now t.free_at in
  let finish = Time.add start cost in
  t.free_at <- finish;
  (* a fire-and-forget event at [finish]: the same time and FIFO stamp
     as [schedule_at], without a handle nobody would hold *)
  if finish <= now then fn () else Engine.post t.engine (finish - now) fn

let charge t cost =
  if cost < 0 then invalid_arg "Cpu.charge: negative cost";
  let now = Engine.now t.engine in
  t.total_busy <- t.total_busy + cost;
  let start = Time.max now t.free_at in
  t.free_at <- Time.add start cost

let total_busy t = t.total_busy

let utilization t ~since_busy ~since_time =
  let elapsed = Time.diff (Engine.now t.engine) since_time in
  if elapsed <= 0 then 0.
  else float_of_int (t.total_busy - since_busy) /. float_of_int elapsed
