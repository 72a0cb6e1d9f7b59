open Cm_util
open Eventsim
open Netsim
open Cm_spec

type variant = Tcp_linux | Tcp_cm | Tcp_cm_nodelay | Buffered | Alf | Alf_noconnect

let variant_name = function
  | Tcp_linux -> "TCP/Linux"
  | Tcp_cm -> "TCP/CM"
  | Tcp_cm_nodelay -> "TCP/CM nodelay"
  | Buffered -> "Buffered"
  | Alf -> "ALF"
  | Alf_noconnect -> "ALF/noconnect"

let all_variants = [ Alf_noconnect; Alf; Buffered; Tcp_cm_nodelay; Tcp_cm; Tcp_linux ]

type point = { size : int; us_per_packet : float }
type table1_row = { t1_variant : variant; ops_per_packet : (string * float) list }

let sizes = [ 64; 168; 256; 512; 768; 1024; 1448 ]
let window = 32

let spec = Spec.pipe ~queue:500 ~rev_queue:500 ~bw:100e6 ~lat:(Time.us 50) ()

(* One system on a fresh 100 Mbit/s LAN pipe, its CM reserving one
   [size]-byte packet per grant and watched as [tag]. *)
let with_net params ~tag ~size body =
  Exp_common.with_system params @@ fun sys ->
  let engine = Exp_common.engine sys in
  let rng = Rng.create ~seed:params.Exp_common.seed in
  let net =
    Build.pipe ~costs:Costs.pentium3 ~rng engine (Spec.par [ spec; Spec.cm ~mtu:size [ "a" ] ])
  in
  Exp_common.watch sys ~tag
    ~links:[ ("ab", net.Build.ab); ("ba", net.Build.ba) ]
    ~cm:(Build.cm net.Build.net "a") ();
  body engine net

(* ------------------------------------------------------------------ *)
(* UDP-based variants: a windowed stop-and-go sender whose per-packet
   boundary crossings follow Table 1, with per-packet acknowledgments. *)

let run_udp variant params ~size ~n =
  with_net params ~tag:"fig6-udp" ~size @@ fun engine net ->
  let lib = Build.libcm net.Build.net "a" in
  let meter = Libcm.meter lib in
  let costs = Host.costs net.Build.a in
  (* plain per-packet echo receiver on host b *)
  let server = Udp.Socket.create net.Build.b ~port:70 () in
  Udp.Socket.on_receive server (fun pkt ->
      match pkt.Packet.payload with
      | Udp.Feedback.Data { seq; bytes; ts } ->
          Udp.Socket.sendto server ~dst:pkt.Packet.flow.Addr.src ~payload_bytes:32
            (Udp.Feedback.Ack { max_seq = seq; count = 1; bytes; ts_echo = ts })
      | _ -> ());
  let socket = Udp.Socket.create net.Build.a () in
  let dst = Addr.endpoint ~host:1 ~port:70 in
  Udp.Socket.connect socket dst;
  let real_key = Addr.flow ~src:(Udp.Socket.local socket) ~dst ~proto:Addr.Udp () in
  (* the unconnected case opens the CM flow under a key the IP layer will
     not match, so the kernel cannot attribute transmissions: the app must
     cm_notify explicitly *)
  let key =
    match variant with
    | Alf_noconnect ->
        (* wildcard-ish source: never matches an outgoing packet *)
        Addr.flow ~src:(Addr.endpoint ~host:0 ~port:1) ~dst ~proto:Addr.Udp ()
    | _ -> real_key
  in
  let fid = Libcm.open_flow lib key in
  let scheduled = ref 0 (* packets committed: send scheduled or request issued *)
  and sent = ref 0
  and acked = ref 0 in
  let t_end = ref None in
  let next_seq = ref 0 in
  (* transmit one committed packet once the CPU has executed the send
     syscall; kernel UDP/IP output is charged before the wire *)
  let send_one_deferred () =
    let extra = costs.Costs.udp_proc + costs.Costs.ip_proc in
    Libcm.Ops.charge_deferred meter ~bytes:size Libcm.Ops.Send (fun () ->
        Cpu.charge (Host.cpu net.Build.a) extra;
        let seq = !next_seq in
        incr next_seq;
        incr sent;
        Udp.Socket.send socket ~payload_bytes:size
          (Udp.Feedback.Data { seq; bytes = size; ts = Engine.now engine });
        match variant with
        | Alf_noconnect -> Libcm.notify lib fid ~nbytes:size
        | _ -> ())
  in
  let pump () =
    while !scheduled < n && !scheduled - !acked < window do
      incr scheduled;
      match variant with
      | Buffered -> send_one_deferred ()
      | Alf | Alf_noconnect -> Libcm.request lib fid
      | Tcp_linux | Tcp_cm | Tcp_cm_nodelay -> assert false
    done
  in
  (match variant with
  | Alf | Alf_noconnect ->
      (* every issued request corresponds to one committed packet *)
      Libcm.register_send lib fid (fun _ -> send_one_deferred ())
  | _ -> ());
  Udp.Socket.on_receive socket (fun pkt ->
      match pkt.Packet.payload with
      | Udp.Feedback.Ack { max_seq = _; count; bytes; ts_echo } ->
          (* receive interrupt, kernel UDP input, then the app's recv and
             RTT timestamping *)
          Cpu.charge (Host.cpu net.Build.a) (costs.Costs.intr_rx + costs.Costs.udp_proc);
          Libcm.app_recv lib ~bytes:32;
          Libcm.app_gettimeofday lib;
          Libcm.app_gettimeofday lib;
          acked := !acked + count;
          let rtt = Time.diff (Engine.now engine) ts_echo in
          Libcm.update lib fid ~nsent:bytes ~nrecd:bytes ~loss:Cm.Cm_types.No_loss ~rtt ();
          if !acked >= n && !t_end = None then t_end := Some (Engine.now engine)
          else pump ()
      | _ -> ());
  let t0 = Engine.now engine in
  pump ();
  let guard = ref 0 in
  while !t_end = None && !guard < 2_000 do
    incr guard;
    Engine.run_for engine (Time.ms 50)
  done;
  let finish = match !t_end with Some t -> t | None -> Engine.now engine in
  let us = Time.to_float_us (Time.diff finish t0) /. float_of_int n in
  (us, meter, engine, net)

(* ------------------------------------------------------------------ *)
(* TCP-based variants *)

let run_tcp variant params ~size ~n =
  with_net params ~tag:"fig6-tcp" ~size @@ fun engine net ->
  let lib = Build.libcm net.Build.net "a" in
  let meter = Libcm.meter lib in
  let delayed = variant <> Tcp_cm_nodelay in
  (* window-limited like the paper's test programs: the experiment measures
     per-packet overhead, not congestion dynamics *)
  let config =
    { Tcp.Conn.default_config with Tcp.Conn.mss = size; delayed_acks = delayed; rwnd = 32 * size }
  in
  let driver =
    match variant with
    | Tcp_linux -> Tcp.Conn.Native
    | Tcp_cm | Tcp_cm_nodelay -> Tcp.Conn.Cm_driven (Build.cm net.Build.net "a")
    | _ -> assert false
  in
  (* the webserver-like app: one send() and one select() per packet,
     charged as its data segments hit the IP layer *)
  Host.add_tx_hook net.Build.a (fun pkt ->
      if pkt.Packet.flow.Addr.proto = Addr.Tcp && Packet.payload_bytes pkt > 0 then begin
        Libcm.Ops.charge meter ~bytes:size Libcm.Ops.Send;
        Libcm.Ops.charge meter ~nfds:1 Libcm.Ops.Select
      end);
  let total = n * size in
  let delivered = ref 0 in
  let t_end = ref None in
  let _listener =
    Tcp.Conn.listen net.Build.b ~port:80 ~config
      ~on_accept:(fun conn ->
        Tcp.Conn.on_receive conn (fun got ->
            delivered := !delivered + got;
            if !delivered >= total && !t_end = None then t_end := Some (Engine.now engine)))
      ()
  in
  let conn =
    Tcp.Conn.connect net.Build.a ~dst:(Addr.endpoint ~host:1 ~port:80) ~driver ~config ()
  in
  let t0 = Engine.now engine in
  Tcp.Conn.send conn total;
  let guard = ref 0 in
  while !t_end = None && !guard < 2_000 do
    incr guard;
    Engine.run_for engine (Time.ms 50)
  done;
  let finish = match !t_end with Some t -> t | None -> Engine.now engine in
  let us = Time.to_float_us (Time.diff finish t0) /. float_of_int n in
  (us, meter, engine, net)

let run_variant_full variant params ~size ~n =
  match variant with
  | Buffered | Alf | Alf_noconnect -> run_udp variant params ~size ~n
  | Tcp_linux | Tcp_cm | Tcp_cm_nodelay -> run_tcp variant params ~size ~n

let run_variant variant params ~size ~n =
  let us, meter, _, _ = run_variant_full variant params ~size ~n in
  (us, meter)

let packets params = if params.Exp_common.full then 200_000 else 20_000

let run params =
  let n = packets params in
  List.map
    (fun v ->
      let points =
        List.map (fun size -> { size; us_per_packet = fst (run_variant v params ~size ~n) }) sizes
      in
      (v, points))
    all_variants

let run_table1 params =
  let n = 5_000 in
  List.map
    (fun v ->
      let _, meter = run_variant v params ~size:168 ~n in
      let ops =
        List.filter_map
          (fun kind ->
            let c = Libcm.Ops.count meter kind in
            if c = 0 then None
            else Some (Libcm.Ops.to_string kind, float_of_int c /. float_of_int n))
          Libcm.Ops.all
      in
      { t1_variant = v; ops_per_packet = ops })
    all_variants

let print series =
  Exp_common.print_header "Figure 6: API overhead, microseconds per packet vs packet size";
  let header =
    List.fold_left
      (fun acc (v, _) -> acc ^ Printf.sprintf "%16s" (variant_name v))
      (Printf.sprintf "%-8s" "size") series
  in
  Exp_common.print_row header;
  List.iter
    (fun size ->
      let row =
        List.fold_left
          (fun acc (_, points) ->
            let p = List.find (fun p -> p.size = size) points in
            acc ^ Printf.sprintf "%16.1f" p.us_per_packet)
          (Printf.sprintf "%-8d" size)
          series
      in
      Exp_common.print_row row)
    sizes

let print_table1 rows =
  Exp_common.print_header
    "Table 1: measured user/kernel boundary crossings per packet (168-byte packets)";
  List.iter
    (fun { t1_variant; ops_per_packet } ->
      Exp_common.print_row (Printf.sprintf "%-16s" (variant_name t1_variant));
      List.iter
        (fun (name, per_pkt) ->
          Exp_common.print_row (Printf.sprintf "    %-16s %6.2f /pkt" name per_pkt))
        ops_per_packet)
    rows

let measure_variant params variant ~size ~n = run_variant variant params ~size ~n

(* ------------------------------------------------------------------ *)
(* Simulator-level diagnostics of a Fig. 6 run: the event-core macro
   workload behind the determinism regression test. *)

type macro_stats = {
  m_us_per_packet : float;
  m_events : int;  (** engine callbacks executed *)
  m_final_clock : Time.t;  (** virtual clock at the end of the run *)
  m_fwd : Link.stats;  (** forward (a → b) link counters *)
  m_rev : Link.stats;  (** reverse (b → a) link counters *)
}

let measure_macro params variant ~size ~n =
  let us, _meter, engine, net = run_variant_full variant params ~size ~n in
  {
    m_us_per_packet = us;
    m_events = Engine.events_executed engine;
    m_final_clock = Engine.now engine;
    m_fwd = Link.stats net.Build.ab;
    m_rev = Link.stats net.Build.ba;
  }
