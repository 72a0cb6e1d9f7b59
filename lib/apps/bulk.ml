open Cm_util
open Eventsim
open Netsim

type t = {
  bytes : int;
  mutable delivered : int;
  mutable finished_at : Time.t option;
  mutable sender_busy0 : Time.span;
  mutable observer : int -> unit;
}

let create ~bytes =
  { bytes; delivered = 0; finished_at = None; sender_busy0 = 0; observer = ignore }
let observe t f = t.observer <- f

let tcp_push t ~src ~dst_host ~port ?(driver = Tcp.Conn.Native) () =
  let engine = Host.engine src in
  let _listener =
    Tcp.Conn.listen dst_host ~port
      ~on_accept:(fun conn ->
        Tcp.Conn.on_receive conn (fun n ->
            t.delivered <- t.delivered + n;
            if t.finished_at = None && t.delivered >= t.bytes then
              t.finished_at <- Some (Engine.now engine);
            t.observer n))
      ()
  in
  let conn =
    Tcp.Conn.connect src ~dst:(Addr.endpoint ~host:(Host.id dst_host) ~port) ~driver ()
  in
  (* the app writes every byte up front (ttcp keeps the pipe full; the
     socket buffer model has no backpressure to exercise here) *)
  Tcp.Conn.send conn t.bytes;
  Tcp.Conn.close conn;
  t.sender_busy0 <- Cpu.total_busy (Host.cpu src)
