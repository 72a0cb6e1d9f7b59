(* bulk_tcpcm: the Fig. 6 TCP/CM macro at 1448-byte segments.

   One CM-driven TCP connection streams n packets over the clean 100 Mbps
   Pentium-III-cost pipe, window 32 segments, delayed ACKs — the same
   system as the fig6 family's TCP/CM variant, wired here from public
   constructors so the benchmark owns the route and sink boundaries.
   Unit of work: one data packet delivered.  The seed picks n. *)

open Cm_util
open Eventsim
open Netsim

let size = 1448
let window = 32

let setup tr ~seed =
  let rng = Rng.create ~seed in
  let n = 190_000 + Rng.int rng 20_001 in
  let engine = Wl.engine tr in
  let a, b, ab, ba = Wl.pipe tr engine ~rng in
  let cm = Cm.create engine ~mtu:size () in
  Cm.attach cm a;
  (* the web-server-like app pays one send() and one select() per packet,
     charged as its data segments hit the IP layer *)
  let lib = Libcm.create a cm () in
  let meter = Libcm.meter lib in
  Host.add_tx_hook a (fun pkt ->
      if pkt.Packet.flow.Addr.proto = Addr.Tcp && Packet.payload_bytes pkt > 0 then begin
        Libcm.Ops.charge meter ~bytes:size Libcm.Ops.Send;
        Libcm.Ops.charge meter ~nfds:1 Libcm.Ops.Select
      end);
  let config = { Tcp.Conn.default_config with Tcp.Conn.mss = size; rwnd = window * size } in
  let total = n * size in
  let delivered = ref 0 and t_end = ref None and receiver = ref None in
  let _listener =
    Tcp.Conn.listen b ~port:80 ~config
      ~on_accept:(fun conn ->
        receiver := Some conn;
        Tcp.Conn.on_receive conn (fun got ->
            Probe.enter tr Probe.Tcp_rx_cb;
            delivered := !delivered + got;
            if !delivered >= total && !t_end = None then t_end := Some (Engine.now engine);
            Probe.leave tr))
      ()
  in
  let conn =
    Tcp.Conn.connect a ~dst:(Addr.endpoint ~host:1 ~port:80) ~driver:(Tcp.Conn.Cm_driven cm)
      ~config ()
  in
  Tcp.Conn.send conn total;
  let run () =
    let guard = ref 0 in
    while !t_end = None && !guard < 2_000 do
      incr guard;
      Wl.run_for tr engine (Time.ms 50)
    done
  in
  let finish () =
    let conns = conn :: Option.to_list !receiver in
    let problems =
      (if !t_end = None then [ Printf.sprintf "transfer unfinished: %d of %d bytes" !delivered total ]
       else [])
      @ if !receiver = None then [ "connection never accepted" ] else []
    in
    let t_end = Option.value !t_end ~default:(Engine.now engine) in
    Wl.outcome ~delivered:(!delivered / size) ~engines:[ engine ] ~links:[ ab; ba ] ~hosts:[ a; b ]
      ~conns ~cms:[ cm ] ~libs:[ lib ]
      ~results:[ ("packets", Json.Int n); ("transfer_end_ns", Json.Int t_end) ]
      ~problems ()
  in
  { Wl.units = Some n; run; finish }

let workload = { Wl.name = "bulk_tcpcm"; setup }
