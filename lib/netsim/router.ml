type t = (Packet.t -> unit) Cm_util.Int_table.t

let create () = Cm_util.Int_table.create 8
let add_route t ~dst out = Cm_util.Int_table.replace t dst out

let forward t pkt =
  match Cm_util.Int_table.find t pkt.Packet.flow.Addr.dst.Addr.host with
  | out -> out pkt
  | exception Not_found -> ()
