(** libcm — the user-space CM library (paper §2.2).

    Gives user-space applications the same [cm_*] API that in-kernel
    clients call directly, while modeling the kernel/user notification
    machinery the paper chose: a single per-process control socket whose
    write bit means "some flow may send" and whose exception bit means
    "network conditions changed", a [select]-based wakeup, and
    ioctl-based extraction of {e all} ready flows in one crossing.

    Every boundary crossing is counted and charged through {!Ops}, which
    is what the API-overhead experiments (Figs. 5–6, Table 1) measure.

    Three event-loop integration modes are provided (paper §3.1):
    [Select_loop] (the default; the app's select loop includes the control
    socket), [Sigio] (SIGIO delivery then an ioctl), and [Poll] (the app
    polls on its own schedule). *)

open Cm_util
open Netsim

module Ops = Ops
(** Boundary-operation metering (re-exported). *)

type mode =
  | Select_loop  (** Control socket in the app's select set. *)
  | Sigio  (** SIGIO notification, then ioctl. *)
  | Poll of Time.span  (** App polls the control socket periodically. *)

type t
(** One process's libcm instance. *)

val create : Host.t -> Cm.t -> ?mode:mode -> unit -> t
(** [create host cm ()] sets up the control socket.  The app's select
    loop scans two descriptors: its data socket and the control socket. *)

val meter : t -> Ops.meter
(** The process's operation meter. *)

val cm : t -> Cm.t
(** The in-kernel CM instance behind the control socket (applications use
    it to join the CM's telemetry timeline; treat as read-only). *)

val mode : t -> mode
(** The notification mode chosen at creation. *)

val destroy : t -> unit
(** Simulated process death (crash or exit without cleanup).  The control
    socket closes: the poll timer stops, no further callbacks are
    delivered, and the CM {!Cm.reap}s every flow the process still owned,
    returning granted-but-unsent bytes to the macroflow windows
    immediately.  Idempotent; subsequent [cm_*] calls on this instance
    raise [Invalid_argument]. *)

val is_alive : t -> bool
(** Whether the process is still alive ([false] after {!destroy}). *)

(** {1 The cm_* API, with boundary costs} *)

val open_flow : t -> Addr.flow -> Cm.Cm_types.flow_id
(** [cm_open]. *)

val close_flow : t -> Cm.Cm_types.flow_id -> unit
(** [cm_close].  The CM-side close runs first: if it raises (unknown or
    already-closed flow), the library's callback tables, mtu cache and
    ownership record are left untouched, so a failed close cannot strand
    the library in a half-closed state. *)

val mtu : t -> Cm.Cm_types.flow_id -> int
(** [cm_mtu] (free: cached in the library). *)

val request : t -> Cm.Cm_types.flow_id -> unit
(** [cm_request]: one ioctl. *)

val bulk_request : t -> Cm.Cm_types.flow_id list -> unit
(** Batched requests: one ioctl for the whole list (§5). *)

val update :
  t ->
  Cm.Cm_types.flow_id ->
  nsent:int ->
  nrecd:int ->
  loss:Cm.Cm_types.loss_mode ->
  ?rtt:Time.span ->
  unit ->
  unit
(** [cm_update]: one ioctl. *)

val bulk_update :
  t ->
  (Cm.Cm_types.flow_id * int * int * Cm.Cm_types.loss_mode * Time.span option) list ->
  unit
(** Batched updates: one ioctl. *)

val notify : t -> Cm.Cm_types.flow_id -> nbytes:int -> unit
(** Explicit [cm_notify] ioctl — needed when the kernel cannot attribute
    a transmission to a flow (the paper's unconnected-UDP "ALF/noconnect"
    case), or to decline a grant with [~nbytes:0]. *)

val query : t -> Cm.Cm_types.flow_id -> Cm.Cm_types.status
(** [cm_query]: one ioctl. *)

val set_thresh : t -> Cm.Cm_types.flow_id -> down:float -> up:float -> unit
(** [cm_thresh]. *)

val register_send : t -> Cm.Cm_types.flow_id -> (Cm.Cm_types.flow_id -> unit) -> unit
(** [cm_register_send]: the callback is dispatched through the control
    socket — a select wakeup (or SIGIO / poll tick) plus one ioctl that
    drains {e all} ready flows. *)

val register_update : t -> Cm.Cm_types.flow_id -> (Cm.Cm_types.status -> unit) -> unit
(** [cm_register_update]: rate-change callback through the control
    socket's exception bit; the dispatch re-queries current status (one
    ioctl), so coalesced changes report only the latest state. *)

(** {1 Application syscall helpers}

    UDP CM clients also pay for their own data-path syscalls; these
    helpers let applications charge and count them through the same
    meter. *)

val app_send : t -> bytes:int -> unit
(** Charge one [sendto] of [bytes]. *)

val app_recv : t -> bytes:int -> unit
(** Charge one [recv] of [bytes]. *)

val app_gettimeofday : t -> unit
(** Charge one clock read. *)

val dispatches : t -> int
(** Control-socket wakeups delivered so far. *)
