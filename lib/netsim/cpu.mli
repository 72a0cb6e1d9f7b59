(** Host CPU modeled as a serial resource.

    The paper's overhead results (Figs. 5 and 6, Table 1) are driven by
    where CPU cycles go: syscalls, data copies, protocol processing.  Each
    host owns one CPU; work items occupy it for a cost-model duration and
    execute in submission order.  Utilization is busy time over elapsed
    time, exactly how the paper reports Fig. 5. *)

open Cm_util
open Eventsim

type t
(** A CPU. *)

val create : Engine.t -> t
(** A CPU bound to the engine's clock, idle at creation. *)

val run : t -> cost:Time.span -> (unit -> unit) -> unit
(** [run t ~cost f] occupies the CPU for [cost] then executes [f].  If the
    CPU is busy the work starts when it frees.  [cost = 0] with an idle CPU
    executes [f] immediately (no event), keeping cost-free simulations
    cheap.  Otherwise one event is posted at the finish time and no
    handle is built.  Items run in submission order: each one finishes no
    earlier than the one before, and equal times fire FIFO.  A caller
    may therefore queue its work items in a FIFO of its own and pass
    the same closure every time, one that pops the head (what
    [Tcp.Conn] does per packet). *)

val charge : t -> Time.span -> unit
(** Account [cost] of busy time without running anything afterwards (used
    for receive-path work whose completion nothing waits on). *)

val total_busy : t -> Time.span
(** Cumulative busy time since creation. *)

val utilization : t -> since_busy:Time.span -> since_time:Time.t -> float
(** [utilization t ~since_busy ~since_time] is the fraction of wall time
    spent busy between a snapshot ([since_busy] = {!total_busy} then,
    [since_time] = the then-current time) and now. *)
