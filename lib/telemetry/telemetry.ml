open Cm_util
open Eventsim
module Metrics = Metrics
module Trace = Trace
module Sampler = Sampler
module Prof = Prof
module Recorder = Recorder

type t = {
  engine : Engine.t;
  metrics : Metrics.t;
  trace : Trace.t;
  sampler : Sampler.t;
}

let default_period = Time.ms 100

let create engine ?(period = default_period) ?trace_capacity () =
  let t =
    {
      engine;
      metrics = Metrics.create ();
      trace =
        (match trace_capacity with
        | None -> Trace.create engine
        | Some cap -> Trace.create_ring engine ~capacity:cap);
      sampler = Sampler.create engine ~period ();
    }
  in
  (* the engine's own health is always worth a column *)
  Sampler.subscribe t.sampler "engine.pending" (fun () ->
      float_of_int (Engine.pending engine));
  Sampler.subscribe t.sampler "engine.events" (fun () ->
      float_of_int (Engine.events_executed engine));
  (* a bounded instance must stay bounded: sampled series grow with the
     run, so only the keep-everything instance samples *)
  if trace_capacity = None then Sampler.start t.sampler;
  t

let engine t = t.engine
let metrics t = t.metrics
let trace t = t.trace
let sampler t = t.sampler

let gauge t name read =
  ignore (Metrics.gauge t.metrics name read);
  Sampler.subscribe t.sampler name read

let counter t name = Metrics.counter t.metrics name
let histogram t name = Metrics.histogram t.metrics name
let stop t = Sampler.stop t.sampler

let export_jsonl t =
  let b = Buffer.create 4096 in
  Trace.to_jsonl b t.trace;
  Buffer.contents b

let export_chrome t =
  let b = Buffer.create 4096 in
  Trace.to_chrome b t.trace;
  Buffer.contents b

let export_csv t =
  let b = Buffer.create 4096 in
  Sampler.to_csv b t.sampler;
  Buffer.contents b

let export_metrics_json t = Json.to_string (Metrics.to_json t.metrics) ^ "\n"
