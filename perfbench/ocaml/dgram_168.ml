(* dgram_168: 168-byte datagrams over the Fig. 6 pipe, in two halves.

   - ALF: the paper's request/callback API through Libcm — a select
     wakeup and one cm_request ioctl per packet, and application acks
     over Udp.Socket folded back with Libcm.update (fig6's ALF variant).
   - CM protocol: a Cmproto.Session whose receiver agent acknowledges
     kernel-to-kernel at ack_every:1 (the ext_cmproto system), with the
     datagrams landing on a bound Udp.Socket.

   The only workload where libcm, udp and cmproto carry the load.  Unit of
   work: one datagram delivered (the session's window probes past the
   forward queue, so a few hundred of its datagrams are dropped there).
   The seed picks each half's count. *)

open Cm_util
open Eventsim
open Netsim

let size = 168
let window = 32

type half = {
  h_engine : Engine.t;
  h_run : unit -> unit;
  h_units : unit -> int;
  h_problems : unit -> string list;
  h_links : Link.t list;
  h_hosts : Host.t list;
  h_cm : Cm.t;
  h_lib : Libcm.t;
  h_extra : unit -> (string * int) list;
}

let alf tr ~rng ~n =
  let engine = Wl.engine tr in
  let a, b, ab, ba = Wl.pipe tr engine ~rng in
  let cm = Cm.create engine ~mtu:size () in
  Cm.attach cm a;
  let lib = Libcm.create a cm () in
  let meter = Libcm.meter lib in
  let costs = Host.costs a in
  let received = ref 0 in
  (* plain per-packet echo receiver on host b *)
  let server = Udp.Socket.create b ~port:70 () in
  Udp.Socket.on_receive server (fun pkt ->
      Probe.enter tr Probe.Udp_rx_cb;
      (match pkt.Packet.payload with
      | Udp.Feedback.Data { seq; bytes; ts } ->
          incr received;
          Probe.enter tr Probe.Udp_send;
          Udp.Socket.sendto server ~dst:pkt.Packet.flow.Addr.src ~payload_bytes:32
            (Udp.Feedback.Ack { max_seq = seq; count = 1; bytes; ts_echo = ts });
          Probe.leave tr
      | _ -> ());
      Probe.leave tr);
  let socket = Udp.Socket.create a () in
  let dst = Addr.endpoint ~host:1 ~port:70 in
  Udp.Socket.connect socket dst;
  let fid = Libcm.open_flow lib (Addr.flow ~src:(Udp.Socket.local socket) ~dst ~proto:Addr.Udp ()) in
  let scheduled = ref 0 and acked = ref 0 and next_seq = ref 0 and t_end = ref None in
  (* transmit one granted packet once the CPU has executed the send
     syscall; kernel UDP/IP output is charged before the wire *)
  let send_one () =
    Libcm.Ops.charge_deferred meter ~bytes:size Libcm.Ops.Send (fun () ->
        Cpu.charge (Host.cpu a) (costs.Costs.udp_proc + costs.Costs.ip_proc);
        let seq = !next_seq in
        incr next_seq;
        Probe.enter tr Probe.Udp_send;
        Udp.Socket.send socket ~payload_bytes:size
          (Udp.Feedback.Data { seq; bytes = size; ts = Engine.now engine });
        Probe.leave tr)
  in
  let pump () =
    while !scheduled < n && !scheduled - !acked < window do
      incr scheduled;
      Probe.enter tr Probe.Libcm_request;
      Libcm.request lib fid;
      Probe.leave tr
    done
  in
  Libcm.register_send lib fid (fun _ ->
      Probe.enter tr Probe.Libcm_grant_cb;
      send_one ();
      Probe.leave tr);
  Udp.Socket.on_receive socket (fun pkt ->
      Probe.enter tr Probe.Udp_rx_cb;
      (match pkt.Packet.payload with
      | Udp.Feedback.Ack { max_seq = _; count; bytes; ts_echo } ->
          (* receive interrupt, kernel UDP input, then the app's recv and
             RTT timestamping *)
          Cpu.charge (Host.cpu a) (costs.Costs.intr_rx + costs.Costs.udp_proc);
          Libcm.app_recv lib ~bytes:32;
          Libcm.app_gettimeofday lib;
          Libcm.app_gettimeofday lib;
          acked := !acked + count;
          let rtt = Time.diff (Engine.now engine) ts_echo in
          Probe.enter tr Probe.Libcm_update;
          Libcm.update lib fid ~nsent:bytes ~nrecd:bytes ~loss:Cm.Cm_types.No_loss ~rtt ();
          Probe.leave tr;
          if !acked >= n && !t_end = None then t_end := Some (Engine.now engine) else pump ()
      | _ -> ());
      Probe.leave tr);
  let run () =
    pump ();
    let guard = ref 0 in
    while !t_end = None && !guard < 2_000 do
      incr guard;
      Wl.run_for tr engine (Time.ms 50)
    done
  in
  {
    h_engine = engine;
    h_run = run;
    h_units = (fun () -> !received);
    h_problems =
      (fun () ->
        if !t_end = None || !received <> n then
          [ Printf.sprintf "ALF half unfinished: %d delivered, %d acked of %d" !received !acked n ]
        else []);
    h_links = [ ab; ba ];
    h_hosts = [ a; b ];
    h_cm = cm;
    h_lib = lib;
    h_extra = (fun () -> [ ("dgram.alf_end_ns", Option.value !t_end ~default:(-1)) ]);
  }

let cmproto tr ~rng ~n =
  let engine = Wl.engine tr in
  let a, b, ab, ba = Wl.pipe tr engine ~rng in
  let costs = Host.costs a in
  let cm = Cm.create engine ~mtu:(size + Cmproto.header_bytes) () in
  Cm.attach cm a;
  let lib = Libcm.create a cm () in
  let meter = Libcm.meter lib in
  (* kernel costs of the protocol itself: the sender pays one interrupt +
     CM work per feedback packet *)
  Host.add_rx_filter a (fun pkt ->
      (match pkt.Packet.payload with
      | Cmproto.Feedback _ -> Cpu.charge (Host.cpu a) (costs.Costs.intr_rx + costs.Costs.cm_op)
      | _ -> ());
      Some pkt);
  let agent = Cmproto.Sender_agent.install a cm in
  let receiver = Cmproto.Receiver_agent.install b ~ack_every:1 () in
  let session =
    Cmproto.Session.create agent ~host:a ~cm ~dst:(Addr.endpoint ~host:1 ~port:7000)
      ~queue_limit_pkts:(window * 2) ()
  in
  (* the application's only boundary crossing: the send syscall *)
  Host.add_tx_hook a (fun pkt ->
      match pkt.Packet.payload with
      | Cmproto.Data _ -> Libcm.Ops.charge meter ~bytes:size Libcm.Ops.Send
      | _ -> ());
  let received = ref 0 in
  let sink = Udp.Socket.create b ~port:7000 () in
  Udp.Socket.on_receive sink (fun _ ->
      Probe.enter tr Probe.Udp_rx_cb;
      incr received;
      Probe.leave tr);
  let fed = ref 0 in
  let pump =
    Timer.create engine ~callback:(fun () ->
        while !fed < n && Cmproto.Session.queued session < window do
          incr fed;
          Probe.enter tr Probe.Cmproto_send;
          Cmproto.Session.send session size;
          Probe.leave tr
        done)
  in
  Timer.start_periodic pump (Time.us 200);
  let t_end = ref None in
  let run () =
    let guard = ref 0 in
    while !t_end = None && !guard < 4_000 do
      incr guard;
      Wl.run_for tr engine (Time.ms 10);
      if
        !fed >= n
        && Cmproto.Session.packets_sent session >= n
        && Cmproto.Session.unresolved_packets session = 0
      then t_end := Some (Engine.now engine)
    done;
    Timer.stop pump
  in
  let extra () =
    let c = Cmproto.Sender_agent.counters agent in
    [
      ("cmproto.feedback_sent", Cmproto.Receiver_agent.feedback_sent receiver);
      ("cmproto.feedback_received", c.Cmproto.Sender_agent.feedback_received);
      ("cmproto.orphan_feedback", c.Cmproto.Sender_agent.orphan_feedback);
      ("cmproto.dup_feedback", c.Cmproto.Sender_agent.dup_feedback);
      ("cmproto.stale_feedback", c.Cmproto.Sender_agent.stale_feedback);
      ("cmproto.bad_echoes", c.Cmproto.Sender_agent.bad_echoes);
      ("cmproto.resyncs", c.Cmproto.Sender_agent.resyncs);
      ("cmproto.solicits", Cmproto.Session.solicits_sent session);
      ("dgram.cmproto_end_ns", Option.value !t_end ~default:(-1));
    ]
  in
  {
    h_engine = engine;
    h_run = run;
    h_units = (fun () -> !received);
    h_problems =
      (fun () ->
        (* the session's window outgrows the forward queue, so a few
           datagrams die there; every other one must have landed *)
        let dropped = (Link.stats ab).Link.queue_drops in
        if !t_end = None || !received + dropped <> n then
          [ Printf.sprintf "CM-protocol half unfinished: %d delivered + %d dropped of %d" !received dropped n ]
        else []);
    h_links = [ ab; ba ];
    h_hosts = [ a; b ];
    h_cm = cm;
    h_lib = lib;
    h_extra = extra;
  }

let setup tr ~seed =
  let rng = Rng.create ~seed in
  let n_alf = 95_000 + Rng.int rng 10_001 in
  let n_proto = 95_000 + Rng.int rng 10_001 in
  let first = alf tr ~rng ~n:n_alf in
  let halves = [ first; cmproto tr ~rng ~n:n_proto ] in
  let each f = List.map f halves in
  let finish () =
    Wl.outcome
      ~delivered:(Wl.sum (fun h -> h.h_units ()) halves)
      ~engines:(each (fun h -> h.h_engine))
      ~links:(List.concat (each (fun h -> h.h_links)))
      ~hosts:(List.concat (each (fun h -> h.h_hosts)))
      ~cms:(each (fun h -> h.h_cm))
      ~libs:(each (fun h -> h.h_lib))
      ~extra:(List.concat (each (fun h -> h.h_extra ())))
      ~problems:(List.concat (each (fun h -> h.h_problems ())))
      ~results:[ ("alf_datagrams", Json.Int n_alf); ("cmproto_datagrams", Json.Int n_proto) ]
      ()
  in
  { Wl.units = None; run = (fun () -> List.iter (fun h -> h.h_run ()) halves); finish }

let workload = { Wl.name = "dgram_168"; setup }
