(* What every workload hands back to the run loop in main.ml, and the
   counter collectors they share. *)

open Eventsim
open Netsim
module Json = Cm_util.Json

type outcome = {
  delivered : int;  (** units of work actually completed *)
  counters : (string * int) list;
      (** what the layers' public APIs report about the simulated run, by
          ledger name (hashed into the digest) *)
  internals : (string * int) list;
      (** how the library did the work: engine events and pool, wheel,
          flow-slot, teardown-probe, libcm-dispatch and profiler counts.
          Ledger only, kept out of the digest: an optimisation that keeps
          the results may move any of them. *)
  results : (string * Json.t) list;  (** other virtual-time results (hashed too) *)
  problems : string list;  (** unfinished work and audit violations *)
}

type sys = {
  units : int option;
      (** units of work the seed asks for; [None] where the count is a
          virtual-time result of the run (known, and fixed by the seed,
          only once it completes) *)
  run : unit -> unit;  (** the simulation phase *)
  finish : unit -> outcome;  (** read results once [run] returns *)
}

type t = {
  name : string;
  setup : Probe.t -> seed:int -> sys;  (** everything up to the first event *)
}

(* Every engine is built here so a traced run can arm the event-core
   profiler before any component closure exists. *)
let engine tr =
  let e = Engine.create () in
  if tr.Probe.on then Engine.enable_prof e;
  e

(* [Engine.run_for] as a span: the eventsim layer's self time is what the
   loop spent outside every visible callee.  Between windows the machine
   speed is sampled ({!Calib.tick}). *)
let run_for tr engine d =
  Probe.enter tr Probe.Run_for;
  Engine.run_for engine d;
  Probe.leave tr;
  Calib.tick ()

(* The Fig. 6 pipe (Topology.pipe with the fig6 family's parameters),
   built here so the benchmark owns the boundaries: the routes it
   attaches call [Link.send] and the sinks it hands the links call
   [Host.deliver], each as a span. *)
let pipe tr engine ~rng =
  let costs = Costs.pentium3 in
  let a = Host.create engine ~id:0 ~costs () in
  let b = Host.create engine ~id:1 ~costs () in
  let deliver_to h pkt =
    Probe.enter tr Probe.Host_deliver;
    Host.deliver h pkt;
    Probe.leave tr
  in
  let link ?rng sink =
    Link.create engine ~bandwidth_bps:100e6 ~delay:(Cm_util.Time.us 50)
      ~qdisc:(Queue_disc.droptail ~limit_pkts:500 ())
      ?rng ~sink ()
  in
  let ab = link ~rng (deliver_to b) in
  let ba = link (deliver_to a) in
  let send_on l pkt =
    Probe.enter tr Probe.Link_send;
    Link.send l pkt;
    Probe.leave tr
  in
  Host.attach_route a (send_on ab);
  Host.attach_route b (send_on ba);
  (a, b, ab, ba)

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

let engine_internals engines =
  let q = List.map Engine.queue_stats engines in
  let dispatches cat e =
    match Engine.prof_report e with
    | Some p ->
        List.fold_left
          (fun acc pc -> if pc.Engine.pc_name = cat then acc + pc.Engine.pc_dispatches else acc)
          0 p.Engine.pr_categories
    | None -> 0
  in
  [
    ("eventsim.events", sum Engine.events_executed engines);
    ("eventsim.pool_hw", List.fold_left (fun acc e -> max acc (Engine.pool_hw e)) 0 engines);
    ("wheel.overflow_inserts", sum (fun s -> s.Cm_util.Wheel.overflow_inserts) q);
    ("wheel.overflow_migrations", sum (fun s -> s.Cm_util.Wheel.overflow_migrations) q);
    ("wheel.hw_size", List.fold_left (fun acc s -> max acc s.Cm_util.Wheel.hw_size) 0 q);
    ("wheel.hw_cur", List.fold_left (fun acc s -> max acc s.Cm_util.Wheel.hw_cur) 0 q);
  ]
  (* event-core profiler dispatches per category: traced runs only *)
  @ List.map
      (fun cat -> ("eventsim.dispatch." ^ cat, sum (dispatches cat) engines))
      [ "timer"; "net"; "cm"; "other" ]

let link_counters links =
  let s = List.map Link.stats links in
  [
    ("link.links", List.length links);
    ("link.enqueued_pkts", sum (fun s -> s.Link.enqueued_pkts) s);
    ("link.delivered_pkts", sum (fun s -> s.Link.delivered_pkts) s);
    ("link.delivered_bytes", sum (fun s -> s.Link.delivered_bytes) s);
    ("link.queue_drops", sum (fun s -> s.Link.queue_drops) s);
    ("link.channel_drops", sum (fun s -> s.Link.channel_drops) s);
    ("link.down_drops", sum (fun s -> s.Link.down_drops) s);
  ]

let host_counters hosts =
  [
    ("host.hosts", List.length hosts);
    ("host.tx_packets", sum Host.tx_packets hosts);
    ("host.tx_bytes", sum Host.tx_bytes hosts);
    ("host.unmatched", sum Host.unmatched hosts);
  ]

let tcp_counters conns =
  let s = List.map Tcp.Conn.stats conns in
  [
    ("tcp.segments_out", sum (fun s -> s.Tcp.Conn.segments_out) s);
    ("tcp.acks_out", sum (fun s -> s.Tcp.Conn.acks_out) s);
    ("tcp.retransmits", sum (fun s -> s.Tcp.Conn.retransmits) s);
    ("tcp.timeouts", sum (fun s -> s.Tcp.Conn.timeouts) s);
    ("tcp.rtt_samples", sum (fun s -> s.Tcp.Conn.rtt_samples) s);
    ("tcp.bytes_delivered", sum (fun s -> s.Tcp.Conn.bytes_delivered) s);
  ]

(* CM counters plus an audit sweep of every CM: a violation is a problem. *)
let cm_counters cms =
  let c = List.map Cm.counters cms in
  let problems =
    List.concat_map
      (fun cm -> List.map (fun v -> "cm audit: " ^ v) (Cm.Audit.run cm).Cm.Audit.violations)
      cms
  in
  ( [
      ("cm.cms", List.length cms);
      ("cm.opens", sum (fun c -> c.Cm.opens) c);
      ("cm.closes", sum (fun c -> c.Cm.closes) c);
      ("cm.requests", sum (fun c -> c.Cm.requests) c);
      ("cm.grants", sum (fun c -> c.Cm.grants) c);
      ("cm.updates", sum (fun c -> c.Cm.updates) c);
      ("cm.notifies", sum (fun c -> c.Cm.notifies) c);
      ("cm.declined_grants", sum (fun c -> c.Cm.declined_grants) c);
      ("cm.rejected_updates", sum (fun c -> c.Cm.rejected_updates) c);
      ("cm.live_flows", sum Cm.live_flows cms);
    ],
    problems )

(* The paper's Table 1 columns, as metric-name segments. *)
let op_label : Libcm.Ops.kind -> string = function
  | Send -> "send"
  | Recv -> "recv"
  | Select -> "select"
  | Ioctl_request -> "ioctl_request"
  | Ioctl_notify -> "ioctl_notify"
  | Ioctl_update -> "ioctl_update"
  | Ioctl_query -> "ioctl_query"
  | Gettimeofday -> "gettimeofday"
  | Sigio -> "sigio"

let libcm_counters libs =
  List.map
    (fun kind ->
      ("libcm.ops." ^ op_label kind, sum (fun l -> Libcm.Ops.count (Libcm.meter l) kind) libs))
    Libcm.Ops.all

let outcome ~delivered ~engines ?(links = []) ?(hosts = []) ?(conns = []) ?(cms = [])
    ?(libs = []) ?(extra = []) ?(results = []) ?(problems = []) () =
  let cm_c, audit = cm_counters cms in
  {
    delivered;
    counters =
      (("eventsim.final_clock_ns", sum Engine.now engines) :: link_counters links)
      @ host_counters hosts @ tcp_counters conns @ cm_c @ libcm_counters libs @ extra;
    internals =
      engine_internals engines
      @ [
          ("cm.teardown_probes", sum Cm.teardown_probes cms);
          ("cm.flow_slot_capacity", sum Cm.flow_slot_capacity cms);
          ("libcm.dispatches", sum Libcm.dispatches libs);
        ];
    results;
    problems = problems @ audit;
  }
