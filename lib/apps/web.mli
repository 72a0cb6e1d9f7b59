(** Web-like request/response workload over TCP (paper §4.3, Fig. 7).

    A server that answers any request with a fixed-size response and
    closes the connection, plus a client that measures per-request
    completion latency.  Used to reproduce the congestion-state sharing
    experiment: a client fetching the same file repeatedly with a fresh
    TCP connection each time either re-learns the path from scratch
    (TCP/Linux) or inherits the macroflow's window and RTT (TCP/CM). *)

open Cm_util
open Netsim

val server :
  Host.t -> port:int -> file_bytes:int -> ?driver:Tcp.Conn.driver -> ?config:Tcp.Conn.config -> unit -> Tcp.Conn.listener
(** Serve: on each accepted connection, wait for the first request bytes,
    send [file_bytes], then close. *)

type fetch_result = {
  started_at : Time.t;  (** When the connection attempt began. *)
  duration : Time.span;  (** Request start to last response byte. *)
  bytes : int;  (** Response bytes received. *)
}
(** Outcome of one fetch. *)

val fetch :
  Host.t ->
  dst:Addr.endpoint ->
  expect_bytes:int ->
  ?driver:Tcp.Conn.driver ->
  ?config:Tcp.Conn.config ->
  on_done:(fetch_result -> unit) ->
  unit ->
  unit
(** One fetch: connect, send a 100-byte request, read until
    [expect_bytes] arrived, close, report. *)

val sequential_fetches :
  Host.t ->
  dst:Addr.endpoint ->
  expect_bytes:int ->
  count:int ->
  gap:Time.span ->
  ?driver:Tcp.Conn.driver ->
  ?config:Tcp.Conn.config ->
  on_done:(fetch_result list -> unit) ->
  unit ->
  unit
(** The Fig. 7 workload: [count] fetches of the same file, each started
    [gap] after the {e start} of the previous one (requests overlap if a
    fetch outlasts the gap).  [on_done] receives results in start order. *)

val concurrent_fetches :
  Host.t ->
  dst:Addr.endpoint ->
  expect_bytes:int ->
  count:int ->
  ?driver:Tcp.Conn.driver ->
  ?config:Tcp.Conn.config ->
  on_done:(fetch_result list -> unit) ->
  unit ->
  unit
(** The 4-parallel-connections browser pattern: all fetches start at
    once. *)

val adaptive_server :
  Host.t ->
  cm:Cm.t ->
  port:int ->
  encodings:int array ->
  target_latency:Time.span ->
  ?driver:Tcp.Conn.driver ->
  ?config:Tcp.Conn.config ->
  unit ->
  Tcp.Conn.listener
(** Content adaptation (§2.1.4, and the paper's title): on each request,
    query the CM for the flow's rate estimate and serve the largest
    encoding in [encodings] (ascending byte sizes — e.g. a large colour
    image down to a small grey-scale one) that the estimated rate can
    deliver within [target_latency]; when the CM has no estimate yet, the
    smallest encoding is served.  The response is followed by close, like
    {!server}. *)
