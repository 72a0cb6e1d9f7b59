(** Seeded chaos-soak harness ([cm_expt soak]).

    A fuzzer that derives a well-formed random spec from a seed — the
    dumbbell shape of the spec test suite's qcheck generator — composed
    with random network faults (outage / loss burst / delay spike on the
    bottleneck), a control-plane fault (seeded drop/dup/jitter on the
    cmproto sender's feedback traffic), a receiver-agent crash/restart,
    and an application fault (a libcm flow that hoards grants and dies),
    then runs it with the CM fully defended under invariant oracles:

    - the spec elaborates with no diagnostics;
    - {!Cm.Audit.run} sweeps every CM each 500 ms and once after
      teardown — window conservation, grant-ledger skew, flow-table
      consistency;
    - closed/destroyed flows leave the flow table (flow-leak oracle);
    - bounded engine backlog after teardown (timer/event-leak oracle);
    - run-twice byte-determinism of a digest over every counter.

    On failure the configuration is shrunk greedily (drop fault elements,
    then scale the workload down) to a locally minimal case, and a
    one-line reproducer is printed: [REPRO: cm_expt soak --seed N].

    [--canary] builds the run's CMs with [~canary_grant_leak] (see
    {!Cm.create}), which re-introduces a grant leak; the audit skew oracle
    must catch it (a mutation test of the whole pipeline).  Every draw and
    every run is keyed only by the seed. *)

type net_fault = { nf_at_s : float; nf_dur_s : float; nf_kind : int }
(** [nf_kind]: 0 = outage, 1 = loss burst, 2 = delay spike. *)

type ctrl_fault = {
  cf_at_s : float;
  cf_dur_s : float;
  cf_drop : float;
  cf_dup : float;
  cf_jitter_ms : int;
}

type cfg = {
  c_seed : int;
  c_n_l : int;
  c_bw_mbps : int;
  c_lat_ms : int;
  c_queue : int;
  c_bulk_kb : int;
  c_duration_s : float;
  c_net_faults : net_fault list;
  c_ctrl_fault : ctrl_fault option;
  c_crash_restart : bool;
  c_hoard_crash : bool;
}

val cfg_of_seed : int -> cfg
(** Deterministic draw: same seed, same configuration. *)

type outcome = { o_failures : string list; o_digest : string }

val run_one : ?canary:bool -> cfg -> outcome
(** One full simulation under the oracles.  [o_failures] is empty on a
    clean run; [o_digest] is the determinism digest (byte-compared by
    {!run_seed}'s second run). *)

type failure = {
  f_seed : int;
  f_cfg : cfg;
  f_shrunk : cfg;
  f_failures : string list;
}

val run_seed : ?canary:bool -> int -> failure option
(** Draw the seed's configuration, run it twice (oracles + determinism),
    and on any breach shrink to a minimal failing configuration.
    [None] means the seed is clean. *)

val repro_line : ?canary:bool -> failure -> string
val failure_json : ?canary:bool -> failure -> Cm_util.Json.t
