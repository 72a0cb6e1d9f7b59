open Cm_util
open Eventsim
open Netsim

type result = {
  transferred : int;
  duration : Time.span;
  throughput_bps : float;
  sender_cpu_utilization : float;
}

let finish ~engine ~src ~t0 ~busy0 ~bytes ~on_done =
  let duration = Stdlib.max 1 (Time.diff (Engine.now engine) t0) in
  let busy = Cpu.total_busy (Host.cpu src) - busy0 in
  on_done
    {
      transferred = bytes;
      duration;
      throughput_bps = float_of_int (bytes * 8) /. Time.to_float_s duration;
      sender_cpu_utilization = float_of_int busy /. float_of_int duration;
    }

let tcp_push ~src ~dst_host ~port ~buffers ~buffer_bytes ?(driver = Tcp.Conn.Native)
    ?(config = Tcp.Conn.default_config) ~on_done () =
  let engine = Host.engine src in
  let total = buffers * buffer_bytes in
  let t0 = Engine.now engine in
  let busy0 = Cpu.total_busy (Host.cpu src) in
  let received = ref 0 in
  let done_ = ref false in
  let _listener =
    Tcp.Conn.listen dst_host ~port
      ~on_accept:(fun conn ->
        Tcp.Conn.on_receive conn (fun n ->
            received := !received + n;
            if (not !done_) && !received >= total then begin
              done_ := true;
              finish ~engine ~src ~t0 ~busy0 ~bytes:total ~on_done
            end))
      ()
  in
  let conn =
    Tcp.Conn.connect src ~dst:(Addr.endpoint ~host:(Host.id dst_host) ~port) ~driver ~config ()
  in
  (* the app writes all buffers up front (ttcp keeps the pipe full; the
     socket buffer model has no backpressure to exercise here) *)
  Tcp.Conn.send conn total;
  Tcp.Conn.close conn
