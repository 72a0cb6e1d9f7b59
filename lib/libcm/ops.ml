open Netsim

type kind =
  | Send
  | Recv
  | Select
  | Ioctl_request
  | Ioctl_notify
  | Ioctl_update
  | Ioctl_query
  | Gettimeofday
  | Sigio

let all =
  [ Send; Recv; Select; Ioctl_request; Ioctl_notify; Ioctl_update; Ioctl_query; Gettimeofday; Sigio ]

let to_string = function
  | Send -> "send"
  | Recv -> "recv"
  | Select -> "select"
  | Ioctl_request -> "ioctl(request)"
  | Ioctl_notify -> "ioctl(notify)"
  | Ioctl_update -> "ioctl(update)"
  | Ioctl_query -> "ioctl(query)"
  | Gettimeofday -> "gettimeofday"
  | Sigio -> "sigio"

let cost_of (c : Costs.t) ?(bytes = 0) ?(nfds = 2) = function
  | Send -> c.Costs.syscall + Costs.copy c bytes
  | Recv -> c.Costs.syscall + Costs.copy c bytes
  | Select -> Costs.select c ~nfds
  | Ioctl_request | Ioctl_notify | Ioctl_update | Ioctl_query -> c.Costs.ioctl
  | Gettimeofday -> c.Costs.gettimeofday
  | Sigio -> c.Costs.signal_delivery

let index = function
  | Send -> 0
  | Recv -> 1
  | Select -> 2
  | Ioctl_request -> 3
  | Ioctl_notify -> 4
  | Ioctl_update -> 5
  | Ioctl_query -> 6
  | Gettimeofday -> 7
  | Sigio -> 8

(* counts by [index]: a charge is one array increment, with no lookup
   and no option *)
type meter = { host : Host.t; counts : int array }

let meter host = { host; counts = Array.make (List.length all) 0 }
let bump m kind = m.counts.(index kind) <- m.counts.(index kind) + 1

let charge m ?bytes ?nfds kind =
  bump m kind;
  let cost = cost_of (Host.costs m.host) ?bytes ?nfds kind in
  if cost > 0 then Cpu.charge (Host.cpu m.host) cost

let charge_deferred m ?bytes ?nfds kind fn =
  bump m kind;
  let cost = cost_of (Host.costs m.host) ?bytes ?nfds kind in
  Cpu.run (Host.cpu m.host) ~cost fn

let count m kind = m.counts.(index kind)
let total m = Array.fold_left ( + ) 0 m.counts
let reset m = Array.fill m.counts 0 (Array.length m.counts) 0
