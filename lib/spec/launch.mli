(** Final stage of the spec pipeline: flow groups → running applications.

    {!run} creates every application of every group, in declaration
    order, schedules flow [i]'s start at [start + i*stagger], and returns
    a handle per group.  What {!Spec.app} describes, flow [i] yields as:

    - [Bulk]: [Transfer], a {!Cm_apps.Bulk} transfer (whole 8 KiB
      buffers, rounded up) that {!Cm_apps.Bulk.tcp_push} starts at the
      flow's start;
    - [Web_fetch]: {!Cm_apps.Web.sequential_fetches} from one
      {!Cm_apps.Web.server} per [(dst, port)], [Pending] then [Fetched];
    - [Layered]: [Streaming], a {!Cm_apps.Layered} source on the source
      host's {!Build.libcm};
    - [Datagram]: [Datagrams], a {!Udp.Cc_socket} and its echo receiver;
    - [Cmproto_session]: [Session], a {!Cmproto.Session} and the agents
      it shares with the other sessions of its hosts.

    All but the fetches exist from {!run} on, so observers may set a
    weight, merge macroflows, watch a transfer's deliveries
    ({!Cm_apps.Bulk.observe}) or read counters before the run as well
    as after.  A transfer counts its delivered bytes and records its
    finish time and its sender's CPU baseline; the CM-driven sources
    run until the group's [stop] time or {!stop}.  {!run} installs
    the cmproto agents' receive filters: a filter that must see packets
    before them (a cost model, {!Build.control_injectors}) is registered
    before {!run}, one that must see what they leave after it. *)

open Cm_util
open Netsim

type pump
(** A source's place on its refill timer; {!stop} releases it. *)

type datagrams = { socket : Udp.Cc_socket.t; echo : Udp.Feedback.Receiver.t; d_pump : pump }

type session = {
  session : Cmproto.Session.t;
  agent : Cmproto.Sender_agent.t;  (** The source host's. *)
  receiver : Cmproto.Receiver_agent.t;  (** The destination host's. *)
  s_pump : pump;
}

type outcome =
  | Pending  (** A fetch sequence, scheduled or running. *)
  | Transfer of Cm_apps.Bulk.t
  | Fetched of { at : Time.t; fetches : Cm_apps.Web.fetch_result list }
  | Streaming of Cm_apps.Layered.t
  | Datagrams of datagrams
  | Session of session

type running = { rg : Check.group; outcomes : outcome array }

val run :
  ?telemetry:Telemetry.t ->
  Build.t ->
  ?driver_for:(Host.t -> Tcp.Conn.driver option) ->
  unit ->
  running list
(** [telemetry], when given, gets each cmproto sender agent's gauges
    ({!Cmproto.Sender_agent.register_gauges}) as the agent is installed,
    before its sessions open macroflows.  [driver_for] supplies the TCP
    driver per host ([None] = stock TCP), for web servers (the data
    sender) as well as connecting clients and bulk senders.  It
    defaults to the spec's own stacks ({!Build.driver}); a stock-TCP
    baseline passes [(fun _ -> None)], and a caller that wires TCP to
    CMs it built itself passes those.  The CM-driven classes use the
    spec's stacks either way. *)

val stop : running -> unit
(** Stop the group's layered sources, and stop refilling its datagram
    and cmproto sources (what they have queued still drains). *)

val done_count : running -> int
(** Finished bounded flows (bulk transfers and fetch sequences). *)

val find : running list -> string -> running
(** Look up a group by name. *)

val transfer : running -> int -> Cm_apps.Bulk.t
val stream : running -> int -> Cm_apps.Layered.t
val datagrams : running -> int -> datagrams
val session : running -> int -> session
(** Flow [i]'s application; raise [Invalid_argument] when the group
    runs another class. *)
