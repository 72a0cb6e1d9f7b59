type t = {
  table : (int, Packet.t -> unit) Hashtbl.t;
  mutable default : (Packet.t -> unit) option;
  mutable no_route : int;
}

let create () = { table = Hashtbl.create 8; default = None; no_route = 0 }
let add_route t ~dst out = Hashtbl.replace t.table dst out
let set_default t out = t.default <- Some out

let forward t pkt =
  let dst = pkt.Packet.flow.Addr.dst.Addr.host in
  match Hashtbl.find_opt t.table dst with
  | Some out -> out pkt
  | None -> (
      match t.default with Some out -> out pkt | None -> t.no_route <- t.no_route + 1)

let no_route_drops t = t.no_route
