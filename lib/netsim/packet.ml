open Cm_util

type payload = ..
type payload += Raw of int

type t = {
  id : int;
  flow : Addr.flow;
  size : int;
  sent_at : Time.t;
  mutable ecn_capable : bool;
  mutable ecn_marked : bool;
  payload : payload;
}

let header_bytes = 58

let next_id = ref 0
let reset_ids () = next_id := 0

let make ~now ~flow ~payload_bytes payload =
  if payload_bytes < 0 then invalid_arg "Packet.make: negative payload size";
  let id = !next_id + 1 in
  next_id := id;
  {
    id;
    flow;
    size = payload_bytes + header_bytes;
    sent_at = now;
    ecn_capable = false;
    ecn_marked = false;
    payload;
  }

let dummy =
  let nowhere = { Addr.host = 0; port = 0 } in
  {
    id = 0;
    flow = { Addr.src = nowhere; dst = nowhere; proto = Addr.Udp; dscp = 0 };
    size = 0;
    sent_at = Time.zero;
    ecn_capable = false;
    ecn_marked = false;
    payload = Raw 0;
  }

let[@inline] payload_bytes t = Stdlib.max 0 (t.size - header_bytes)

let pp fmt t =
  Format.fprintf fmt "#%d %a %dB%s%s sent=%a" t.id Addr.pp_flow t.flow t.size
    (if t.ecn_capable then " ect" else "")
    (if t.ecn_marked then " ce" else "")
    Time.pp t.sent_at
