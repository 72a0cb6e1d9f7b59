(** Instrumented runs of a registered family: [cm_expt trace] exports the
    telemetry artifacts, [cm_expt report] the health analyzer's verdicts.

    Same family + same seed ⇒ byte-identical files (virtual-time stamps,
    [Cm_util.Json] rendering) — checked in the test suite and in CI. *)

val capture :
  seed:int -> (string * (Exp_common.params -> unit)) list -> (string * Telemetry.t) list
(** Run each named sub-run with telemetry requested and return every
    system it watched, oldest first, named after its sub-run ([<sub>.<i>]
    when the sub-run watched several).  Packet ids restart before each
    sub-run, so repeated in-process captures stay byte-identical. *)

type artifact = { a_name : string; a_path : string; a_bytes : int }

val trace : out_dir:string -> seed:int -> Family.t -> artifact list
(** Capture the family and write [<system>.trace.jsonl], [.chrome.json]
    (Perfetto), [.series.csv] and [.metrics.json] per captured system into
    [out_dir] (created with any missing parents). *)

val report : out_dir:string -> seed:int -> Family.t -> artifact list
(** Capture the family, analyze every system ({!Cm_report.Analyze}) and
    write [<family>.report.json] (also printed to stdout; one object, or
    one per system keyed by name) and [<family>.report.md] (one section
    per system) into [out_dir]. *)

val print_artifacts : out_channel -> artifact list -> unit
(** One line per file written. *)
