(** Flight recorder: the dump path for a bounded trace.

    The trace is normally a preallocated ring of the last N events
    ({!Trace.create_ring}: O(1) overwrite, no growth — cheap enough to
    leave on for whole runs).  When something goes wrong (a [Cm.Audit]
    invariant breach, a quarantine, an exception escaping engine dispatch)
    the recorder writes it to a JSONL file, so the failure report says
    "here are the last 4096 events before it happened" instead of just
    "it happened".

    Wiring: the ring is the trace of a bounded {!Telemetry.t} (created
    with [~trace_capacity:default_capacity]), and components join it
    through their one entry point, [attach_telemetry] ([Link], [Cm]),
    exactly as they join a full telemetry instance.  {!create} also
    installs the engine escape hook, so crash dumps need no
    per-experiment code.

    Dump format: one header object
    [{"recorder", "reason", "ts_ns", "events", "dropped"}], then one
    JSON object per event (same schema as {!Trace.to_jsonl}).  Timestamps
    are virtual, so for a fixed seed a dump is byte-identical run after
    run. *)

type t

val default_capacity : int
(** Ring size of a flight-recorder trace: 4096 events. *)

val create : Eventsim.Engine.t -> out_dir:string -> ?tag:string -> Trace.t -> t
(** [create engine ~out_dir trace] dumps [trace] into [out_dir] (created,
    with any missing parents, on first dump) as [<tag>-<n>.dump.jsonl].
    Installs the engine's escape hook: an exception escaping event
    dispatch dumps the trace (reason ["exception: …"]) before the
    exception propagates. *)

val dump : t -> reason:string -> string
(** Write the ring now; returns the file path.  Call on audit violations,
    quarantines, or any other "explain what just happened" trigger. *)

val dumps : t -> int
(** Dumps written so far. *)

val files : t -> string list
(** Paths written, oldest first. *)

val last_file : t -> string option

val mkdir_p : string -> unit
(** Create a directory and any missing parents (no-op if it exists). *)
