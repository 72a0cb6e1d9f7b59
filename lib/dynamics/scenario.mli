(** Declarative network-dynamics scenarios.

    A scenario is a timed schedule of fault actions over *named* topology
    elements — the reusable, scriptable replacement for ad-hoc
    per-experiment bandwidth fiddling.  Build one with {!make}, then
    {!compile} it onto an engine with a name → link binding; compilation
    schedules every action as an event-driven {!Faults} process.

    Determinism contract: all randomness (Bernoulli / Gilbert–Elliott
    loss) is drawn from streams split off the single [rng] passed to
    {!compile}, one per stochastic step in declaration order — the same
    seed and scenario give byte-identical runs regardless of how the
    simulation interleaves. *)

open Cm_util
open Eventsim
open Netsim

type loss_spec =
  | Loss_off  (** No channel loss at all (overrides the link baseline). *)
  | Loss_bernoulli of float  (** I.i.d. loss with this probability. *)
  | Loss_gilbert_elliott of Loss.ge  (** Bursty two-state Markov loss. *)

type action =
  | Set_bandwidth of float  (** Renegotiate the serialization rate. *)
  | Ramp_bandwidth of { to_bps : float; over : Time.span; steps : int }
      (** Linear ramp from the rate in force to [to_bps]. *)
  | Set_loss of loss_spec  (** Install a channel-loss model persistently. *)
  | Loss_burst of { spec : loss_spec; duration : Time.span }
      (** Install a loss model, then revert to the link baseline. *)
  | Outage of Time.span  (** Link down (all-in-flight drops), then up. *)
  | Flap of { down : Time.span; up : Time.span; cycles : int }
      (** Repeated outages. *)
  | Delay_spike of { extra : Time.span; jitter : Time.span; duration : Time.span }
      (** Temporarily inflated propagation delay with optional jitter. *)
  | Control_fault of { profile : Control_faults.profile; duration : Time.span }
      (** Degrade only classified control traffic (CM feedback) at the
          target *host*'s {!Control_faults} injector for [duration]. *)

type step = { at : Time.t; target : string; action : action }
(** One scheduled action on one named topology element. *)

type t = { name : string; steps : step list }

val make : name:string -> step list -> t
(** Validates every step (probabilities in \[0,1\], non-negative times and
    durations, positive rates/steps/cycles); raises [Invalid_argument]
    with the scenario and target named. *)

val validate : links:string list -> ?controls:string list -> t -> unit
(** Check every step's target against the available element names —
    [Control_fault] steps against [controls] (the hosts carrying an
    injector), every other action against [links]; raises
    [Invalid_argument] on an unknown name. *)

val fault_window : t -> (Time.t * Time.t) option
(** [(first fault start, last fault clearance)] over the *bounded*
    disruptions (outages, flaps, loss bursts, delay spikes, control
    faults) — what a recovery experiment measures against.  Persistent
    renegotiations (set/ramp bandwidth, set loss) have no clearance and
    are ignored.  [None] if the scenario has no bounded disruption. *)

val compile :
  Engine.t ->
  rng:Rng.t ->
  links:(string * Link.t) list ->
  ?controls:(string * Control_faults.t) list ->
  t ->
  unit
(** Bind targets to links (and [Control_fault] targets to injectors) and
    schedule every step on the engine (steps at or before "now" apply
    immediately).  Raises [Invalid_argument] on an unknown target. *)
