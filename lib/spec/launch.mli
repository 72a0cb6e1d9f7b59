(** Final stage of the spec pipeline: flow groups → running applications.

    {!run} schedules every flow of every group on the build's engine —
    deterministically, in declaration order, flow [i] starting at
    [start + i*stagger] — and returns a handle per group to read
    results from after the run:

    - [Bulk] groups launch one {!Cm_apps.Bulk.tcp_push} per source on
      ports [port], [port+1], … (whole 8 KiB buffers, byte count rounded
      up);
    - [Web_fetch] groups share one {!Cm_apps.Web.server} per
      [(dst, port)] and run {!Cm_apps.Web.sequential_fetches} per source;
    - [Layered] groups bind a per-flow echo receiver on ports [port+i]
      and drive a {!Cm_apps.Layered} source over the source host's
      {!Build.libcm}, stopped at the group's [stop] time if given.
      {!Check} has already rejected a layered source without a CM
      ([layered-needs-cm]). *)

open Cm_util
open Netsim

type outcome =
  | Pending  (** Launched (or scheduled) but not finished. *)
  | Bulk_done of { at : Time.t; result : Cm_apps.Bulk.result }
  | Fetched of { at : Time.t; fetches : Cm_apps.Web.fetch_result list }
  | Streaming of Cm_apps.Layered.t

type running = { rg : Check.group; outcomes : outcome array }

val run : Build.t -> driver_for:(Host.t -> Tcp.Conn.driver option) -> unit -> running list
(** [driver_for] supplies the TCP driver per host ([None] = stock TCP);
    it is consulted for web servers (the data sender) as well as
    connecting clients.  Families pass [Build.driver net], the spec's
    own stacks.  It stays a parameter so that a caller can still wire
    TCP to CMs it built itself (a benchmark outside the library does).
    Layered sources need no such hook: their libcm is the spec's, from
    {!Build.libcm}, which is why there is no [libcm_for]. *)

val done_count : running -> int
(** Finished bounded flows (bulk transfers and fetch sequences). *)

val find : running list -> string -> running
(** Look up a group by name. *)
