open Cm_util
open Eventsim
open Netsim
open Cm_spec

type telemetry_request = { period : Time.span; mutable captured : Telemetry.t list }

type params = {
  seed : int;
  full : bool;
  telemetry : telemetry_request option;
  prof : bool;
  recorder : string option;
}

let default_params = { seed = 42; full = false; telemetry = None; prof = false; recorder = None }

let request_telemetry ?(period = Time.ms 100) () = { period; captured = [] }

type system = {
  params : params;
  engine : Engine.t;
  mutable tel : Telemetry.t option;
  mutable recorder : Telemetry.Recorder.t option;
}

(* The profiler is armed before the body runs, so before any component
   closure exists: [Engine.prof_tag] is identity on an unprofiled engine.
   The profile goes to stderr, where it cannot contaminate a seeded stdout
   channel — wall-clock figures are nondeterministic by nature. *)
let with_system params body =
  let engine = Engine.create () in
  if params.prof then Engine.enable_prof engine;
  let sys = { params; engine; tel = None; recorder = None } in
  let result = body sys in
  Option.iter Telemetry.stop sys.tel;
  if params.prof then prerr_endline (Telemetry.Prof.summary engine);
  result

let engine sys = sys.engine
let telemetry sys = sys.tel
let recorder sys = sys.recorder

(* The telemetry instance is created here rather than with the engine: its
   sampler's first tick must be scheduled after whatever the body set up
   before watching (e.g. a bandwidth schedule at the same instants).  The
   flight recorder's sink is a bounded instance (a ring, no sampler); it
   is skipped under full telemetry, whose growable trace already keeps
   everything the ring would. *)
let watch sys ?tag ?(links = []) ?cm () =
  let engine = sys.engine in
  let tel =
    match (sys.params.telemetry, sys.params.recorder) with
    | Some req, _ ->
        let tel = Telemetry.create engine ~period:req.period () in
        req.captured <- tel :: req.captured;
        Some tel
    | None, Some out_dir ->
        let tel =
          Telemetry.create engine ~trace_capacity:Telemetry.Recorder.default_capacity ()
        in
        sys.recorder <- Some (Telemetry.Recorder.create engine ~out_dir ?tag (Telemetry.trace tel));
        Some tel
    | None, None -> None
  in
  Option.iter
    (fun tel ->
      sys.tel <- Some tel;
      List.iter (fun (name, link) -> Link.attach_telemetry link ~name tel) links;
      Option.iter (fun c -> Cm.attach_telemetry c tel) cm)
    tel

let kbps bits_per_s = bits_per_s /. 8. /. 1000.

let print_header name =
  print_endline "";
  print_endline ("== " ^ name ^ " ==")

let print_row = print_endline

(* The serializer lives in [Cm_util.Json] so every machine-readable
   channel (experiments, telemetry, tracer) formats floats identically. *)
module Json = Cm_util.Json

let measured_bulk params ~use_cm ~spec ?(costs = Costs.zero) ?duration () =
  with_system params @@ fun sys ->
  let engine = sys.engine in
  let rng = Rng.create ~seed:params.seed in
  let net = Build.pipe ~costs ~rng engine spec in
  let cm = Build.cm net.Build.net "a" in
  watch sys ~links:[ ("ab", net.Build.ab); ("ba", net.Build.ba) ] ~cm ();
  let driver_for = if use_cm then None else Some (fun _ -> None) in
  let transfer =
    match Launch.run net.Build.net ?driver_for () with
    | [ g ] -> Launch.transfer g 0
    | _ -> invalid_arg "Exp_common.measured_bulk: the spec must declare one bulk group"
  in
  (* the sender's busy time when the last byte is delivered: the CPU
     figure is over the same span as the goodput, so the FIN exchange and
     late acks that follow are not charged to the transfer *)
  let cpu = Host.cpu net.Build.a in
  let busy_at_finish = ref (-1) in
  Cm_apps.Bulk.observe transfer (fun _ ->
      if !busy_at_finish < 0 && Option.is_some transfer.Cm_apps.Bulk.finished_at then
        busy_at_finish := Cpu.total_busy cpu);
  (match duration with
  | Some d -> Engine.run_for engine d
  | None ->
      (* run until delivery completes (bounded by a generous limit) *)
      let guard = ref 0 in
      while transfer.Cm_apps.Bulk.finished_at = None && !guard < 10_000 do
        incr guard;
        Engine.run_for engine (Time.ms 100)
      done);
  let elapsed = Option.value transfer.Cm_apps.Bulk.finished_at ~default:(Engine.now engine) in
  let elapsed = Stdlib.max elapsed 1 in
  let busy_end = if !busy_at_finish < 0 then Cpu.total_busy cpu else !busy_at_finish in
  let busy = busy_end - transfer.Cm_apps.Bulk.sender_busy0 in
  let goodput = float_of_int (transfer.Cm_apps.Bulk.delivered * 8) /. Time.to_float_s elapsed in
  let util = float_of_int busy /. float_of_int elapsed in
  (goodput, util)
