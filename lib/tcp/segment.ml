open Cm_util

type t = {
  seq : int;
  len : int;
  flags : int;
  ack_seq : int;
  wnd : int;
  ts_val : Time.t;
  ts_ecr : Time.t;
  sacks : (int * int) list;
}

type Netsim.Packet.payload += Tcp_seg of t

let flag_syn = 1
let flag_fin = 2
let flag_ack = 4
let flag_ece = 8

let[@inline] bit b flag = if b then flag else 0

let make ~seq ~len ~syn ~fin ~ack ~ack_seq ~wnd ~ts_val ~ts_ecr ~ece ~sacks =
  {
    seq;
    len;
    flags = bit syn flag_syn lor bit fin flag_fin lor bit ack flag_ack lor bit ece flag_ece;
    ack_seq;
    wnd;
    ts_val;
    ts_ecr;
    sacks;
  }

let[@inline] syn s = s.flags land flag_syn <> 0
let[@inline] fin s = s.flags land flag_fin <> 0
let[@inline] ack s = s.flags land flag_ack <> 0
let[@inline] ece s = s.flags land flag_ece <> 0

let seg_end s = s.seq + s.len + (if syn s then 1 else 0) + if fin s then 1 else 0

let pp fmt s =
  Format.fprintf fmt "seq=%d len=%d%s%s%s%s wnd=%d%s" s.seq s.len
    (if syn s then " SYN" else "")
    (if fin s then " FIN" else "")
    (if ack s then Printf.sprintf " ack=%d" s.ack_seq else "")
    (if ece s then " ECE" else "")
    s.wnd
    (match s.sacks with
    | [] -> ""
    | blocks ->
        " sack="
        ^ String.concat ","
            (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) blocks))
