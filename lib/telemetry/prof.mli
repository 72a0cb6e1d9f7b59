(** Event-core profiler, rendering side.

    The measurement lives in {!Eventsim.Engine} ([enable_prof] /
    [prof_tag] / [prof_report]): exact per-category dispatch counters,
    sampled wall-clock attribution (one [gettimeofday] every
    [2^sample_shift] dispatches), GC deltas from [Gc.quick_stat], and
    queue/pool occupancy counters.  This module turns a report into a
    human-readable summary (for stderr).

    Wall-clock and GC figures are nondeterministic; never route them into
    a seeded-JSON channel that CI byte-diffs. *)

val summary : Eventsim.Engine.t -> string
(** Multi-line human summary (dispatch shares, sampled wall split, GC,
    queue occupancy). *)
