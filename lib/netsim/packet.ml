open Cm_util

type payload = ..
type payload += Raw of int

type t = {
  id : int;
  flow : Addr.flow;
  size : int;
  sent_at : Time.t;
  mutable ecn : int;
  payload : payload;
}

let header_bytes = 58

let ect = 1
let ce = 2

let[@inline] ecn_capable t = t.ecn land ect <> 0
let[@inline] ecn_marked t = t.ecn land ce <> 0
let[@inline] set_ecn_capable t = t.ecn <- t.ecn lor ect
let[@inline] mark_ce t = t.ecn <- t.ecn lor ce

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
    ecn = 0;
    payload;
  }

let dummy =
  let nowhere = { Addr.host = 0; port = 0 } in
  {
    id = 0;
    flow = { Addr.src = nowhere; dst = nowhere; proto = Addr.Udp; dscp = 0 };
    size = 0;
    sent_at = Time.zero;
    ecn = 0;
    payload = Raw 0;
  }

let[@inline] payload_bytes t = Int.max 0 (t.size - header_bytes)

let pp fmt t =
  Format.fprintf fmt "#%d %a %dB%s%s sent=%a" t.id Addr.pp_flow t.flow t.size
    (if ecn_capable t then " ect" else "")
    (if ecn_marked t then " ce" else "")
    Time.pp t.sent_at
