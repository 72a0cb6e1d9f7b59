(** Many-flow scalability experiment family.

    A web-server-like closed-loop workload driven straight against the CM
    API: N ∈ \{64, 512, 4096, 16384\} concurrent flows spread over N/32
    destination hosts (hundreds of macroflows at the top end), each
    running a fixed number of request → grant → notify → update cycles
    over a synthetic ~2 ms path, with a slice of flows closing and
    reopening mid-run and everything closed at the end.  Run under both
    schedulers (round-robin and weighted stride).

    The deterministic JSON ({!to_json}) reports virtual-time metrics only
    — grant counts, engine events, events-per-grant, request→grant
    latency percentiles, teardown probes — and is byte-identical for a
    fixed seed (the CI scale determinism gate diffs it). *)

type sched = Rr | Stride

type point = {
  p_sched : sched;
  p_flows : int;
  p_macroflows : int;  (** per-destination macroflows actually created *)
  p_rounds : int;  (** grant cycles per flow *)
  p_grants : int;
  p_closes : int;
  p_events : int;  (** engine callbacks executed *)
  p_virtual_s : float;
  p_lat_p50_us : float;  (** request → grant latency (virtual time) *)
  p_lat_p99_us : float;
  p_teardown_probes : int;  (** {!Cm.teardown_probes} after close-all *)
}

val family : int list
(** The standard flow counts: [64; 512; 4096; 16384]. *)

val rounds : int
(** Grant cycles per flow (fixed, so events-per-grant is comparable
    across N). *)

val run_point : Exp_common.params -> sched:sched -> flows:int -> point
(** One (scheduler, N) cell. *)

val run : ?sizes:int list -> Exp_common.params -> point list
(** Every (scheduler, N) cell; [sizes] defaults to {!family}. *)

val to_json : Exp_common.params -> point list -> Exp_common.Json.t
(** Virtual-time metrics only — deterministic for a fixed seed. *)

val print : Exp_common.params -> point list -> unit
(** Header plus the {!to_json} document on one line. *)
