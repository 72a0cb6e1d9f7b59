type proto = Tcp | Udp
type endpoint = { host : int; port : int }
type flow = { src : endpoint; dst : endpoint; proto : proto; dscp : int }

let endpoint ~host ~port = { host; port }

let flow ?(dscp = 0) ~src ~dst ~proto () =
  if dscp < 0 || dscp > 63 then invalid_arg "Addr.flow: dscp must be in [0, 63]";
  { src; dst; proto; dscp }
let reverse f = { f with src = f.dst; dst = f.src }
let equal_endpoint a b = a.host = b.host && a.port = b.port
let equal_flow a b =
  equal_endpoint a.src b.src && equal_endpoint a.dst b.dst && a.proto = b.proto
  && a.dscp = b.dscp

(* per-packet on the receive path: only allocate when there is actually a
   codepoint to strip (dscp = 0 is the overwhelmingly common case) *)
let strip_dscp f = if f.dscp = 0 then f else { f with dscp = 0 }
let pp_proto fmt p = Format.pp_print_string fmt (match p with Tcp -> "tcp" | Udp -> "udp")
let pp_endpoint fmt e = Format.fprintf fmt "%d:%d" e.host e.port

let pp_flow fmt f =
  Format.fprintf fmt "%a %a -> %a%s" pp_proto f.proto pp_endpoint f.src pp_endpoint f.dst
    (if f.dscp = 0 then "" else Printf.sprintf " dscp=%d" f.dscp)

(* the final xor-shift folds high bits into the low ones a table masks
   to a bucket *)
let hash_flow f =
  let h = (f.src.host * 31) + f.src.port in
  let h = (h * 31) + f.dst.host in
  let h = (h * 31) + f.dst.port in
  let h = (h * 31) + (match f.proto with Tcp -> 0 | Udp -> 1) in
  let h = ((h * 31) + f.dscp) * 0x9E3779B1 in
  h lxor (h lsr 16)

module Flow_table = Hashtbl.Make (struct
  type t = flow

  let equal = equal_flow
  let hash = hash_flow
end)
