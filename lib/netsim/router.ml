type t = { table : (int, Packet.t -> unit) Hashtbl.t; mutable no_route : int }

let create () = { table = Hashtbl.create 8; no_route = 0 }
let add_route t ~dst out = Hashtbl.replace t.table dst out

let forward t pkt =
  match Hashtbl.find t.table pkt.Packet.flow.Addr.dst.Addr.host with
  | out -> out pkt
  | exception Not_found -> t.no_route <- t.no_route + 1

let no_route_drops t = t.no_route
