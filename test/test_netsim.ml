(* Tests for the network substrate: queues, links, hosts, routers,
   CPU resource.  Whole topologies are built by the spec DSL and tested
   in test_spec.ml. *)

open Cm_util
open Eventsim
open Netsim

let ( => ) name cond = Alcotest.(check bool) name true cond

let mk_flow ?(src = 0) ?(dst = 1) ?(sport = 10) ?(dport = 20) ?(proto = Addr.Udp) () =
  Addr.flow
    ~src:(Addr.endpoint ~host:src ~port:sport)
    ~dst:(Addr.endpoint ~host:dst ~port:dport)
    ~proto ()

let mk_pkt ?(bytes = 1000) ?flow () =
  let flow = match flow with Some f -> f | None -> mk_flow () in
  Packet.make ~now:0 ~flow ~payload_bytes:bytes (Packet.Raw bytes)

(* ---- Addr ------------------------------------------------------------ *)

let test_addr_reverse () =
  let f = mk_flow () in
  let r = Addr.reverse f in
  "src/dst swapped" => (Addr.equal_endpoint r.Addr.src f.Addr.dst && Addr.equal_endpoint r.Addr.dst f.Addr.src);
  "double reverse identity" => Addr.equal_flow f (Addr.reverse r)

let test_addr_equality () =
  "equal flows" => Addr.equal_flow (mk_flow ()) (mk_flow ());
  "different port differs" => not (Addr.equal_flow (mk_flow ()) (mk_flow ~sport:11 ()));
  "different proto differs" => not (Addr.equal_flow (mk_flow ()) (mk_flow ~proto:Addr.Tcp ()))

(* [Flow_table] hashes the six int fields with integer arithmetic: equal
   flows (distinct blocks) hash equal, a flow changed in any one field is
   a distinct key, and host demux, which strips the DSCP before its
   probe, still finds a connection whose peer marks its packets. *)
let prop_flow_table_keys =
  let gen =
    QCheck.Gen.(
      map
        (fun ((sh, sp, dh), (dp, pr, ds), (field, delta, mark)) ->
          let f =
            Addr.flow ~dscp:ds
              ~src:(Addr.endpoint ~host:sh ~port:sp)
              ~dst:(Addr.endpoint ~host:dh ~port:dp)
              ~proto:(if pr then Addr.Tcp else Addr.Udp)
              ()
          in
          (f, field, delta, mark))
        (triple
           (triple (int_bound 4095) (int_bound 65535) (int_bound 4095))
           (triple (int_bound 65535) bool (int_bound 63))
           (triple (int_bound 5) (int_range 1 63) (int_range 1 63))))
  in
  let print (f, field, delta, mark) =
    Format.asprintf "%a field %d delta %d mark %d" Addr.pp_flow f field delta mark
  in
  QCheck.Test.make ~name:"flow keys: equal hash equal, one field apart are distinct" ~count:1000
    (QCheck.make ~print gen) (fun (f, field, delta, mark) ->
      let ep (e : Addr.endpoint) = Addr.endpoint ~host:e.host ~port:e.port in
      let copy (g : Addr.flow) =
        Addr.flow ~dscp:g.dscp ~src:(ep g.src) ~dst:(ep g.dst) ~proto:g.proto ()
      in
      let g =
        match field with
        | 0 -> { f with src = { f.src with host = f.src.host + delta } }
        | 1 -> { f with src = { f.src with port = f.src.port + delta } }
        | 2 -> { f with dst = { f.dst with host = f.dst.host + delta } }
        | 3 -> { f with dst = { f.dst with port = f.dst.port + delta } }
        | 4 -> { f with proto = (match f.proto with Addr.Tcp -> Addr.Udp | Addr.Udp -> Addr.Tcp) }
        | _ -> { f with dscp = (f.dscp + delta) land 63 }
      in
      let tbl = Addr.Flow_table.create 16 in
      Addr.Flow_table.replace tbl f 1;
      let found = Addr.Flow_table.find_opt tbl (copy f) = Some 1 in
      let missed = Addr.Flow_table.find_opt tbl g = None in
      Addr.Flow_table.replace tbl g 2;
      let h = Host.create (Engine.create ()) ~id:f.dst.host () in
      let hits = ref 0 in
      let base = Addr.strip_dscp f in
      Host.connect_demux h base (fun _ -> incr hits);
      Host.deliver h (mk_pkt ~flow:{ base with dscp = mark } ());
      Addr.hash_flow f = Addr.hash_flow (copy f)
      && found && missed
      && (not (Addr.equal_flow f g))
      && Addr.Flow_table.length tbl = 2
      && Addr.Flow_table.find tbl f = 1
      && Addr.Flow_table.find tbl g = 2
      && !hits = 1)

(* ---- Packet ----------------------------------------------------------- *)

let test_packet_sizes () =
  let p = mk_pkt ~bytes:100 () in
  Alcotest.(check int) "wire size includes headers" (100 + Packet.header_bytes) p.Packet.size;
  Alcotest.(check int) "payload recoverable" 100 (Packet.payload_bytes p);
  let ids = List.init 10 (fun _ -> (mk_pkt ()).Packet.id) in
  Alcotest.(check int) "ids unique" 10 (List.length (List.sort_uniq Stdlib.compare ids))

(* The two ECN bits share one int: each combination of ECT and CE must
   read back exactly as set, and setting one must leave the other. *)
let test_packet_ecn_round_trip () =
  List.iter
    (fun (ect, ce) ->
      let p = mk_pkt ~bytes:100 () in
      "made not ECN-capable" => not (Packet.ecn_capable p);
      "made unmarked" => not (Packet.ecn_marked p);
      if ect then Packet.set_ecn_capable p;
      if ce then Packet.mark_ce p;
      let case = Printf.sprintf "ect=%b ce=%b" ect ce in
      Alcotest.(check bool) (case ^ ": ect") ect (Packet.ecn_capable p);
      Alcotest.(check bool) (case ^ ": ce") ce (Packet.ecn_marked p);
      Alcotest.(check int) (case ^ ": size untouched") (100 + Packet.header_bytes) p.Packet.size)
    [ (false, false); (true, false); (false, true); (true, true) ]

(* Golden renderings: trace text must not drift with the packet's
   layout.  The id is the only part that depends on how many packets
   the process made before. *)
let test_packet_pp_golden () =
  let flow =
    Addr.flow
      ~src:(Addr.endpoint ~host:1 ~port:80)
      ~dst:(Addr.endpoint ~host:2 ~port:5001)
      ~proto:Addr.Tcp ()
  in
  let p = Packet.make ~now:1_500 ~flow ~payload_bytes:1448 (Packet.Raw 1448) in
  let golden rest = Printf.sprintf "#%d tcp 1:80 -> 2:5001 1506B%s sent=1.50us" p.Packet.id rest in
  let render () = Format.asprintf "%a" Packet.pp p in
  Alcotest.(check string) "plain" (golden "") (render ());
  Packet.set_ecn_capable p;
  Alcotest.(check string) "ect" (golden " ect") (render ());
  Packet.mark_ce p;
  Alcotest.(check string) "ect+ce" (golden " ect ce") (render ())

(* ---- Queue_disc -------------------------------------------------------- *)

let test_droptail_limit () =
  let q = Queue_disc.droptail ~limit_pkts:3 () in
  let verdicts = List.init 5 (fun _ -> Queue_disc.enqueue q (mk_pkt ())) in
  let accepted = List.length (List.filter (( = ) Queue_disc.Enqueued) verdicts) in
  Alcotest.(check int) "three accepted" 3 accepted;
  Alcotest.(check int) "two dropped" 2 (Queue_disc.drops q);
  Alcotest.(check int) "len" 3 (Queue_disc.len q)

let test_droptail_byte_limit () =
  let q = Queue_disc.droptail ~limit_bytes:2500 ~limit_pkts:100 () in
  let p () = mk_pkt ~bytes:(1000 - Packet.header_bytes) () in
  ignore (Queue_disc.enqueue q (p ()));
  ignore (Queue_disc.enqueue q (p ()));
  let v = Queue_disc.enqueue q (p ()) in
  "third rejected over byte limit" => (v = Queue_disc.Dropped)

let test_droptail_fifo () =
  let q = Queue_disc.droptail ~limit_pkts:10 () in
  let p1 = mk_pkt () and p2 = mk_pkt () in
  ignore (Queue_disc.enqueue q p1);
  ignore (Queue_disc.enqueue q p2);
  (let p = Queue_disc.dequeue q in
   if p == Packet.dummy then Alcotest.fail "empty"
   else Alcotest.(check int) "fifo order" p1.Packet.id p.Packet.id);
  Alcotest.(check int) "bytes tracked" p2.Packet.size (Queue_disc.bytes q)

let test_empty_dequeue_is_dummy () =
  let rng = Rng.create ~seed:3 in
  List.iter
    (fun (name, q) ->
      (name ^ ": empty") => (Queue_disc.dequeue q == Packet.dummy);
      let p = mk_pkt () in
      ignore (Queue_disc.enqueue q p);
      (name ^ ": the packet") => (Queue_disc.dequeue q == p);
      (name ^ ": empty again") => (Queue_disc.dequeue q == Packet.dummy);
      Alcotest.(check int) (name ^ ": nothing left") 0 (Queue_disc.len q))
    [
      ("droptail", Queue_disc.droptail ~limit_pkts:4 ());
      ("red", Queue_disc.red ~min_th:2 ~max_th:6 ~limit_pkts:10 ~rng ());
      ("drop-listed", Queue_disc.drop_listed ~drops:[ 2 ] ~limit_pkts:4 ());
    ]

let test_red_marks_ecn () =
  let rng = Rng.create ~seed:1 in
  let q = Queue_disc.red ~ecn:true ~min_th:2 ~max_th:6 ~limit_pkts:10 ~rng () in
  (* hold a standing queue so the EWMA average climbs over min_th *)
  let marked = ref 0 and dropped = ref 0 in
  for _ = 1 to 500 do
    let p = mk_pkt () in
    Packet.set_ecn_capable p;
    (match Queue_disc.enqueue q p with
    | Queue_disc.Enqueued -> if Packet.ecn_marked p then incr marked
    | Queue_disc.Dropped -> incr dropped);
    (* drain slowly: keep ~5 in queue *)
    if Queue_disc.len q > 5 then ignore (Queue_disc.dequeue q)
  done;
  "RED marked ECN-capable packets" => (!marked > 0);
  Alcotest.(check int) "ECN avoided early drops below max_th" !marked (Queue_disc.marks q)

let test_red_drops_non_ect () =
  let rng = Rng.create ~seed:2 in
  let q = Queue_disc.red ~ecn:true ~min_th:2 ~max_th:6 ~limit_pkts:10 ~rng () in
  let dropped = ref 0 in
  for _ = 1 to 500 do
    (match Queue_disc.enqueue q (mk_pkt ()) with
    | Queue_disc.Dropped -> incr dropped
    | Queue_disc.Enqueued -> ());
    if Queue_disc.len q > 5 then ignore (Queue_disc.dequeue q)
  done;
  "non-ECT packets get dropped instead" => (!dropped > 0)

(* ---- Link --------------------------------------------------------------- *)

let test_link_serialization_rate () =
  let e = Engine.create () in
  let arrivals = ref [] in
  let link =
    Link.create e ~bandwidth_bps:8e6 ~delay:0 ~sink:(fun _ -> arrivals := Engine.now e :: !arrivals) ()
  in
  (* 1000-byte packets at 8 Mbps: 1 ms serialization each *)
  let wire = 1000 in
  for _ = 1 to 3 do
    Link.send link (mk_pkt ~bytes:(wire - Packet.header_bytes) ())
  done;
  Engine.run e;
  Alcotest.(check (list int)) "back-to-back serialization"
    [ Time.ms 1; Time.ms 2; Time.ms 3 ]
    (List.rev !arrivals)

let test_link_propagation_delay () =
  let e = Engine.create () in
  let arrival = ref None in
  let link =
    Link.create e ~bandwidth_bps:8e6 ~delay:(Time.ms 10)
      ~sink:(fun _ -> arrival := Some (Engine.now e))
      ()
  in
  Link.send link (mk_pkt ~bytes:(1000 - Packet.header_bytes) ());
  Engine.run e;
  Alcotest.(check (option int)) "tx time + prop delay" (Some (Time.ms 11)) !arrival

let test_link_no_reorder () =
  let e = Engine.create () in
  let rng = Rng.create ~seed:3 in
  let order = ref [] in
  let link =
    Link.create e ~bandwidth_bps:1e7 ~delay:(Time.ms 5)
      ~sink:(fun p -> order := p.Packet.id :: !order)
      ()
  in
  let sent = ref [] in
  for i = 0 to 49 do
    ignore
      (Engine.schedule_at e (Time.us (i * 137)) (fun () ->
           let p = mk_pkt ~bytes:(100 + Rng.int rng 1000) () in
           sent := p.Packet.id :: !sent;
           Link.send link p))
  done;
  Engine.run e;
  let delivered = List.rev !order in
  let sent = List.rev !sent in
  let delivered_subset = List.filter (fun id -> List.mem id delivered) sent in
  Alcotest.(check (list int)) "FIFO delivery" delivered_subset delivered

let test_link_loss_rate () =
  let e = Engine.create () in
  let rng = Rng.create ~seed:4 in
  let got = ref 0 in
  let link =
    Link.create e ~bandwidth_bps:1e9 ~delay:0 ~loss_rate:0.3 ~rng ~sink:(fun _ -> incr got) ()
  in
  let n = 20_000 in
  for _ = 1 to n do
    Link.send link (mk_pkt ~bytes:42 ())
  done;
  Engine.run e;
  let stats = Link.stats link in
  Alcotest.(check int) "conservation" n
    (!got + stats.Link.channel_drops + stats.Link.queue_drops);
  let loss = float_of_int stats.Link.channel_drops /. float_of_int n in
  "empirical loss near 30%" => (Float.abs (loss -. 0.3) < 0.02)

let test_link_bandwidth_change () =
  let e = Engine.create () in
  let arrivals = ref [] in
  let link =
    Link.create e ~bandwidth_bps:8e6 ~delay:0 ~sink:(fun _ -> arrivals := Engine.now e :: !arrivals) ()
  in
  Link.send link (mk_pkt ~bytes:(1000 - Packet.header_bytes) ());
  Engine.run e;
  Link.set_bandwidth link 4e6;
  Link.send link (mk_pkt ~bytes:(1000 - Packet.header_bytes) ());
  Engine.run e;
  match List.rev !arrivals with
  | [ t1; t2 ] ->
      Alcotest.(check int) "first at old rate" (Time.ms 1) t1;
      Alcotest.(check int) "second takes twice as long" (Time.ms 3) t2
  | _ -> Alcotest.fail "expected two arrivals"


let expect_invalid name f =
  name
  => (try
        ignore (f ());
        false
      with Invalid_argument _ -> true)

let test_link_probability_validation () =
  let e = Engine.create () in
  let rng = Rng.create ~seed:5 in
  let mk ?loss_rate () =
    Link.create e ~bandwidth_bps:1e6 ~delay:0 ?loss_rate ~rng ~sink:ignore ()
  in
  expect_invalid "negative loss rate rejected" (fun () -> mk ~loss_rate:(-0.1) ());
  expect_invalid "loss rate > 1 rejected" (fun () -> mk ~loss_rate:1.5 ());
  expect_invalid "NaN loss rate rejected" (fun () -> mk ~loss_rate:Float.nan ());
  ignore (mk ~loss_rate:0. ());
  ignore (mk ~loss_rate:1. ());
  "boundary values accepted" => true

(* ---- Lazy transmission ---------------------------------------------------- *)

(* 100-byte packets (wire size) at 8 Gbit/s: 100 ns of serialization *)
let ns_link ?(limit = 100) e sink =
  Link.create e ~bandwidth_bps:8e9 ~delay:50
    ~qdisc:(Queue_disc.droptail ~limit_pkts:limit ())
    ~sink ()

let pkt100 () = mk_pkt ~bytes:(100 - Packet.header_bytes) ()

(* Sends made before the first [run] serialize back to back.  The first
   packet goes on the wire at once, so only its delivery is queued; the
   second queues the drain behind it, and the third finds it queued. *)
let test_lazy_back_to_back_before_run () =
  let e = Engine.create () in
  let arrivals = ref [] in
  let link = ns_link e (fun p -> arrivals := (Engine.now e, p.Packet.id) :: !arrivals) in
  let pkts = List.init 3 (fun _ -> pkt100 ()) in
  let pending = List.map (fun p -> Link.send link p; Engine.pending e) pkts in
  Alcotest.(check (list int)) "events queued after each send" [ 1; 2; 2 ] pending;
  "busy before run" => Link.busy link;
  Engine.run e;
  Alcotest.(check (list (pair int int))) "deliveries"
    (List.mapi (fun i p -> ((100 * (i + 1)) + 50, p.Packet.id)) pkts)
    (List.rev !arrivals);
  "idle after run" => not (Link.busy link)

(* An arrival at exactly the end of a transmission sees the transmitter
   as an eager link would: busy if its event was queued before the
   transmission started (its FIFO stamp is older than the finish's), idle
   if after.  With a one-packet buffer, the early pair admits one packet
   and drops the other; the late pair finds the transmitter free, so
   both are admitted. *)
let test_lazy_send_at_busy_until () =
  List.iter
    (fun (early, drops, busy_seen) ->
      let e = Engine.create () in
      let link = ns_link ~limit:1 e ignore in
      let seen = ref [] in
      let arrive () =
        seen := Link.busy link :: !seen;
        Link.send link (pkt100 ())
      in
      let at_finish () =
        ignore (Engine.schedule_at e 100 arrive);
        ignore (Engine.schedule_at e 100 arrive)
      in
      if early then at_finish ();
      ignore
        (Engine.schedule_at e 0 (fun () ->
             Link.send link (pkt100 ());
             if not early then at_finish ()));
      Engine.run e;
      let case = if early then "queued before the start" else "queued after the start" in
      Alcotest.(check (list bool)) (case ^ ": busy as seen") busy_seen (List.rev !seen);
      Alcotest.(check int) (case ^ ": queue drops") drops (Link.stats link).Link.queue_drops;
      Alcotest.(check int)
        (case ^ ": delivered")
        (3 - drops)
        (Link.stats link).Link.delivered_pkts)
    [ (true, 1, [ true; true ]); (false, 0, [ false; true ]) ]

(* [busy] holds from a transmission's start until its end has had its
   turn, also when a link-down killed the packet on the wire. *)
let test_lazy_busy () =
  let e = Engine.create () in
  let link = ns_link e ignore in
  "idle at creation" => not (Link.busy link);
  Link.send link (pkt100 ());
  "busy at start" => Link.busy link;
  Engine.run ~until:99 e;
  "busy before the end" => Link.busy link;
  Engine.run ~until:100 e;
  "idle once the end passed" => not (Link.busy link);
  ignore
    (Engine.schedule_at e 200 (fun () ->
         Link.send link (pkt100 ());
         Link.take_down link));
  Engine.run ~until:250 e;
  "a killed packet holds the transmitter" => Link.busy link;
  Engine.run ~until:300 e;
  "until its end" => not (Link.busy link);
  Alcotest.(check int) "killed packet counted down" 1 (Link.stats link).Link.down_drops;
  Alcotest.(check int) "first packet delivered" 1 (Link.stats link).Link.delivered_pkts

(* A delivery posted before a link-down pops nothing, even when a later
   packet's delivery surfaces first.  A packet on a 30 ms detour dies in
   the outage at 5 ms; the next one, sent at 6 ms once the detour is
   cleared, takes 1 ms to serialize and 10 ms to propagate.  A count of
   stale deliveries hands it to the sink at the dead packet's time,
   41 ms. *)
let test_link_down_kills_by_stamp () =
  let e = Engine.create () in
  let arrivals = ref [] in
  let link =
    Link.create e ~bandwidth_bps:8e6 ~delay:(Time.ms 10)
      ~sink:(fun p -> arrivals := (Engine.now e, p.Packet.id) :: !arrivals)
      ()
  in
  let dead = mk_pkt ~bytes:(1000 - Packet.header_bytes) () in
  let live = mk_pkt ~bytes:(1000 - Packet.header_bytes) () in
  Link.set_extra_delay link (Time.ms 30);
  Link.send link dead;
  ignore
    (Engine.schedule_at e (Time.ms 5) (fun () ->
         Link.take_down link;
         Link.set_extra_delay link 0;
         Link.bring_up link));
  ignore (Engine.schedule_at e (Time.ms 6) (fun () -> Link.send link live));
  Engine.run e;
  Alcotest.(check (list (pair int int))) "only the live packet, at 6 + 1 + 10 ms"
    [ (Time.ms 17, live.Packet.id) ]
    (List.rev !arrivals);
  Alcotest.(check int) "the dead one counted down" 1 (Link.stats link).Link.down_drops

(* A delay set while a packet serializes reaches the next transmission;
   the packet on the wire keeps the delay it started with. *)
let test_link_delay_change_next_transmission () =
  let e = Engine.create () in
  let arrivals = ref [] in
  let link =
    Link.create e ~bandwidth_bps:8e6 ~delay:(Time.ms 10)
      ~sink:(fun _ -> arrivals := Engine.now e :: !arrivals)
      ()
  in
  Link.send link (mk_pkt ~bytes:(1000 - Packet.header_bytes) ());
  Link.send link (mk_pkt ~bytes:(1000 - Packet.header_bytes) ());
  ignore (Engine.schedule_at e (Time.us 500) (fun () -> Link.set_extra_delay link (Time.ms 5)));
  Engine.run e;
  Alcotest.(check (list int)) "first at 1 + 10 ms, second at 2 + 10 + 5 ms"
    [ Time.ms 11; Time.ms 17 ]
    (List.rev !arrivals)

(* The reference for the lazy link: a link that queues an event at the
   end of every transmission and puts the packet on the wire there.  The
   rules it shares with the lazy link: a packet's propagation (delay,
   extra delay and jitter in force) and its delivery's FIFO stamp are
   decided when its transmission starts, and a link-down kills every
   delivery whose stamp is older than one it reserves. *)
module Eager_link = struct
  type t = {
    e : Engine.t;
    mutable bw : float;
    delay : Time.span;
    qdisc : Queue_disc.t;
    rng : Rng.t;
    sink : Packet.t -> unit;
    drop : string -> Packet.t -> unit;
    mutable busy : bool;
    mutable up : bool;
    mutable extra : Time.span;
    mutable jitter : Time.span;
    mutable txing : Packet.t;
    mutable arrive_at : Time.t;
    mutable dstamp : int;
    in_flight : Packet.t Queue.t;
    mutable dead_below : int;
  }

  let create e ~bw ~delay ~qdisc ~rng ~sink ~drop =
    {
      e;
      bw;
      delay;
      qdisc;
      rng;
      sink;
      drop;
      busy = false;
      up = true;
      extra = 0;
      jitter = 0;
      txing = Packet.dummy;
      arrive_at = 0;
      dstamp = -1;
      in_flight = Queue.create ();
      dead_below = -1;
    }

  let deliver t stamp () = if stamp > t.dead_below then t.sink (Queue.pop t.in_flight)

  let rec start t =
    let pkt = if t.up then Queue_disc.dequeue t.qdisc else Packet.dummy in
    if pkt == Packet.dummy then t.busy <- false
    else begin
      t.busy <- true;
      t.txing <- pkt;
      let tx = Time.sec (float_of_int (pkt.Packet.size * 8) /. t.bw) in
      Engine.post t.e tx (fun () -> finish t);
      t.dstamp <- Engine.reserve_stamp t.e;
      t.arrive_at <- Engine.now t.e + tx + t.delay + t.extra + Rng.uniform_span t.rng t.jitter
    end

  and finish t =
    let pkt = t.txing in
    if pkt != Packet.dummy then begin
      t.txing <- Packet.dummy;
      Queue.push pkt t.in_flight;
      Engine.post_stamped t.e t.arrive_at ~stamp:t.dstamp (deliver t t.dstamp)
    end;
    start t

  let send t pkt =
    if not t.up then t.drop "down" pkt
    else
      match Queue_disc.enqueue t.qdisc pkt with
      | Queue_disc.Dropped -> t.drop "queue" pkt
      | Queue_disc.Enqueued -> if not t.busy then start t

  let take_down t =
    if t.up then begin
      t.up <- false;
      if t.txing != Packet.dummy then begin
        t.drop "down" t.txing;
        t.txing <- Packet.dummy
      end;
      t.dead_below <- Engine.reserve_stamp t.e;
      Queue.iter (t.drop "down") t.in_flight;
      Queue.clear t.in_flight
    end

  let bring_up t =
    if not t.up then begin
      t.up <- true;
      if not t.busy then start t
    end
end

type link_op =
  | L_send of int (* wire size, in hundreds of bytes *)
  | L_down
  | L_up
  | L_bw of float
  | L_extra of Time.span
  | L_jitter of Time.span
  | L_noise

(* An op runs at [at] x 100 ns.  An [early] one is queued before the run
   starts, so its FIFO stamp is older than any transmission's; a late one
   is queued by a relay event [lag] x 100 ns earlier, after whatever
   transmissions started by then. *)
type link_step = { at : int; early : bool; lag : int; op : link_op }

type link_ops = {
  l_send : Packet.t -> unit;
  l_down : unit -> unit;
  l_up : unit -> unit;
  l_bw : float -> unit;
  l_extra : Time.span -> unit;
  l_jitter : Time.span -> unit;
  l_busy : unit -> bool;
}

(* The whole script's log, in event order: busy readings, deliveries and
   noise events as (time, tag); drops as (time, cause, packet). *)
let run_link_script mk (script : link_step list) pkts =
  let e = Engine.create () in
  let log = ref [] and drops = ref [] in
  let record tag = log := (Engine.now e, tag) :: !log in
  let sink (p : Packet.t) = record (Printf.sprintf "D%d" p.Packet.id) in
  let drop cause (p : Packet.t) = drops := (Engine.now e, cause, p.Packet.id) :: !drops in
  let l, lib_drops = mk e ~sink ~drop in
  let exec k op =
    record (Printf.sprintf "%d:%b" k (l.l_busy ()));
    match op with
    | L_send _ -> l.l_send pkts.(k)
    | L_down -> l.l_down ()
    | L_up -> l.l_up ()
    | L_bw b -> l.l_bw b
    | L_extra d -> l.l_extra d
    | L_jitter j -> l.l_jitter j
    | L_noise -> ()
  in
  List.iteri
    (fun k { at; early; lag; op } ->
      let at = at * 100 in
      if early then ignore (Engine.schedule_at e at (fun () -> exec k op))
      else
        ignore
          (Engine.schedule_at e (Stdlib.max 0 (at - (lag * 100))) (fun () ->
               ignore (Engine.schedule_at e at (fun () -> exec k op)))))
    script;
  Engine.run e;
  let drops = match lib_drops with Some read -> read () | None -> List.rev !drops in
  (List.rev !log, drops)

let lib_link e ~sink ~drop:_ =
  let tel = Telemetry.create e () in
  Telemetry.stop tel;
  let link =
    Link.create e ~bandwidth_bps:8e9 ~delay:100
      ~qdisc:(Queue_disc.droptail ~limit_pkts:3 ())
      ~rng:(Rng.create ~seed:7) ~sink ()
  in
  Link.attach_telemetry link ~name:"l" tel;
  let drops () =
    List.filter_map
      (fun (ev : Telemetry.Trace.event) ->
        match (List.assoc_opt "cause" ev.args, List.assoc_opt "packet" ev.args) with
        | Some (Telemetry.Trace.Str cause), Some (Telemetry.Trace.Int id) when ev.name = "link.drop"
          ->
            Some (ev.ts, cause, id)
        | _ -> None)
      (Telemetry.Trace.events (Telemetry.trace tel))
  in
  ( {
      l_send = Link.send link;
      l_down = (fun () -> Link.take_down link);
      l_up = (fun () -> Link.bring_up link);
      l_bw = Link.set_bandwidth link;
      l_extra = Link.set_extra_delay link;
      l_jitter = Link.set_jitter link;
      l_busy = (fun () -> Link.busy link);
    },
    Some drops )

let eager_link e ~sink ~drop =
  let t =
    Eager_link.create e ~bw:8e9 ~delay:100
      ~qdisc:(Queue_disc.droptail ~limit_pkts:3 ())
      ~rng:(Rng.create ~seed:7) ~sink ~drop
  in
  ( {
      l_send = Eager_link.send t;
      l_down = (fun () -> Eager_link.take_down t);
      l_up = (fun () -> Eager_link.bring_up t);
      l_bw = (fun b -> t.Eager_link.bw <- b);
      l_extra = (fun d -> t.Eager_link.extra <- d);
      l_jitter = (fun j -> t.Eager_link.jitter <- j);
      l_busy = (fun () -> t.Eager_link.busy);
    },
    None )

(* Serialization times (100-600 ns), delays and ops sit on a 100 ns grid,
   so arrivals keep landing on the nanosecond a transmission ends, queued
   before or after it started, and deliveries tie with ops.  A 1 us extra
   delay outlasts a few ops, so a packet sent after an outage often
   overtakes one the outage killed. *)
let gen_link_step =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (10, map (fun k -> L_send k) (int_range 1 3));
        (1, return L_down);
        (2, return L_up);
        (1, map (fun b -> L_bw b) (oneofl [ 8e9; 4e9 ]));
        (2, map (fun d -> L_extra d) (oneofl [ 0; 100; 1000 ]));
        (1, map (fun j -> L_jitter j) (oneofl [ 0; 0; 100 ]));
        (2, return L_noise);
      ]
  in
  map4
    (fun at early lag op -> { at; early; lag; op })
    (int_bound 40) bool (int_bound 3) op

let pp_link_step { at; early; lag; op } =
  Printf.sprintf "%dns %s %s" (at * 100)
    (if early then "early" else Printf.sprintf "late(-%dns)" (lag * 100))
    (match op with
    | L_send k -> Printf.sprintf "send %dB" (k * 100)
    | L_down -> "down"
    | L_up -> "up"
    | L_bw b -> Printf.sprintf "bw %g" b
    | L_extra d -> Printf.sprintf "extra %dns" d
    | L_jitter j -> Printf.sprintf "jitter %dns" j
    | L_noise -> "noise")

let prop_lazy_link_matches_eager =
  QCheck.Test.make ~name:"lazy link delivers and drops where the eager one does" ~count:1000
    (QCheck.make
       ~print:(fun steps -> String.concat "\n" (List.map pp_link_step steps))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 1 40) gen_link_step))
    (fun script ->
      let pkts =
        Array.of_list
          (List.map
             (fun { op; _ } ->
               match op with
               | L_send k -> mk_pkt ~bytes:((k * 100) - Packet.header_bytes) ()
               | _ -> Packet.dummy)
             script)
      in
      let lazy_log, lazy_drops = run_link_script lib_link script pkts in
      let eager_log, eager_drops = run_link_script eager_link script pkts in
      let show log = String.concat " " (List.map (fun (t, l) -> Printf.sprintf "%s@%d" l t) log) in
      let show_drops ds =
        String.concat " " (List.map (fun (t, c, id) -> Printf.sprintf "%s#%d@%d" c id t) ds)
      in
      (lazy_log = eager_log && lazy_drops = eager_drops)
      || QCheck.Test.fail_reportf "lazy:  %s\n       %s\neager: %s\n       %s" (show lazy_log)
           (show_drops lazy_drops) (show eager_log) (show_drops eager_drops))

(* ---- Cpu ------------------------------------------------------------------ *)

let test_cpu_serializes () =
  let e = Engine.create () in
  let cpu = Cpu.create e in
  let done_at = ref [] in
  Cpu.run cpu ~cost:(Time.us 10) (fun () -> done_at := Engine.now e :: !done_at);
  Cpu.run cpu ~cost:(Time.us 5) (fun () -> done_at := Engine.now e :: !done_at);
  Engine.run e;
  Alcotest.(check (list int)) "work serialized" [ Time.us 10; Time.us 15 ] (List.rev !done_at);
  Alcotest.(check int) "busy total" (Time.us 15) (Cpu.total_busy cpu)

let test_cpu_zero_cost_is_immediate () =
  let e = Engine.create () in
  let cpu = Cpu.create e in
  let ran = ref false in
  Cpu.run cpu ~cost:0 (fun () -> ran := true);
  "zero-cost work ran synchronously" => !ran

let test_cpu_utilization () =
  let e = Engine.create () in
  let cpu = Cpu.create e in
  let busy0 = Cpu.total_busy cpu and t0 = Engine.now e in
  Cpu.charge cpu (Time.ms 10);
  ignore (Engine.schedule_at e (Time.ms 100) (fun () -> ()));
  Engine.run e;
  let u = Cpu.utilization cpu ~since_busy:busy0 ~since_time:t0 in
  Alcotest.(check (float 1e-9)) "10% busy" 0.1 u

(* ---- Host / Router ---------------------------------------------------------- *)

let test_host_demux_priority () =
  let e = Engine.create () in
  let h = Host.create e ~id:1 () in
  let port_hits = ref 0 and conn_hits = ref 0 in
  Host.bind h Addr.Udp ~port:20 (fun _ -> incr port_hits);
  Host.deliver h (mk_pkt ());
  Alcotest.(check int) "listener got it" 1 !port_hits;
  Host.connect_demux h (mk_flow ()) (fun _ -> incr conn_hits);
  Host.deliver h (mk_pkt ());
  Alcotest.(check int) "exact match wins" 1 !conn_hits;
  Alcotest.(check int) "listener bypassed" 1 !port_hits;
  Host.disconnect_demux h (mk_flow ());
  Host.deliver h (mk_pkt ());
  Alcotest.(check int) "listener again after disconnect" 2 !port_hits

(* [Host.cpu] and [Host.costs] are [%field0]/[%field1] externals over the
   host record: these fail if its field order changes. *)
let test_host_cpu_and_costs_fields () =
  let e = Engine.create () in
  let costs = Costs.pentium3 in
  let h = Host.create e ~id:1 ~costs () in
  "costs is the profile given" => (Host.costs h == costs);
  Cpu.charge (Host.cpu h) (Time.us 7);
  Alcotest.(check int) "charge reaches the host's CPU" (Time.us 7) (Cpu.total_busy (Host.cpu h))

let test_host_unmatched_counted () =
  let e = Engine.create () in
  let h = Host.create e ~id:1 () in
  Host.deliver h (mk_pkt ());
  Alcotest.(check int) "unmatched counted" 1 (Host.unmatched h)

let test_host_tx_hooks_order () =
  let e = Engine.create () in
  let h = Host.create e ~id:0 () in
  let log = ref [] in
  Host.attach_route h (fun _ -> log := "route" :: !log);
  Host.add_tx_hook h (fun _ -> log := "hook1" :: !log);
  Host.add_tx_hook h (fun _ -> log := "hook2" :: !log);
  Host.ip_output h (mk_pkt ());
  Alcotest.(check (list string)) "hooks before route, in order" [ "hook1"; "hook2"; "route" ]
    (List.rev !log);
  Alcotest.(check int) "tx counted" 1 (Host.tx_packets h)

let test_host_ports_unique () =
  let e = Engine.create () in
  let h = Host.create e ~id:0 () in
  let p1 = Host.alloc_port h and p2 = Host.alloc_port h in
  "ephemeral ports distinct" => (p1 <> p2);
  Host.bind h Addr.Udp ~port:99 (fun _ -> ());
  "double bind rejected"
  => (try
        Host.bind h Addr.Udp ~port:99 (fun _ -> ());
        false
      with Invalid_argument _ -> true)

let test_router_forwarding () =
  let r = Router.create () in
  let to1 = ref 0 in
  Router.add_route r ~dst:1 (fun _ -> incr to1);
  Router.forward r (mk_pkt ());
  Alcotest.(check int) "routed" 1 !to1;
  Router.forward r (mk_pkt ~flow:(mk_flow ~dst:9 ()) ());
  Alcotest.(check int) "no route: dropped" 1 !to1

(* the bandwidth-schedule machinery moved to lib/dynamics (Faults.
   bandwidth_steps / Scenario); its tests live in test_dynamics.ml *)

(* ---- Drop attribution --------------------------------------------------- *)

let test_link_drop_causes_traced () =
  let e = Engine.create () in
  let rng = Rng.create ~seed:21 in
  (* sampler stopped, so [Engine.run] drains *)
  let tel = Telemetry.create e () in
  Telemetry.stop tel;
  let tr = Telemetry.trace tel in
  (* a slow link with a 2-packet queue and heavy channel loss: both queue
     and channel drops occur, and the trace must tell them apart *)
  let link =
    Link.create e ~bandwidth_bps:8e4 ~delay:0 ~loss_rate:0.4 ~rng
      ~qdisc:(Queue_disc.droptail ~limit_pkts:2 ())
      ~sink:ignore ()
  in
  Link.attach_telemetry link ~name:"bottleneck" tel;
  for _ = 1 to 50 do
    Link.send link (mk_pkt ~bytes:(1000 - Packet.header_bytes) ())
  done;
  Engine.run e;
  let stats = Link.stats link in
  let count cause =
    let is_drop (ev : Telemetry.Trace.event) =
      ev.name = "link.drop" && List.assoc_opt "cause" ev.args = Some (Telemetry.Trace.Str cause)
    in
    List.length (List.filter is_drop (Telemetry.Trace.events tr))
  in
  "both kinds occurred" => (stats.Link.channel_drops > 0 && stats.Link.queue_drops > 0);
  Alcotest.(check int) "channel drops attributed" stats.Link.channel_drops (count "channel");
  Alcotest.(check int) "queue drops attributed" stats.Link.queue_drops (count "queue");
  Alcotest.(check int) "no outage drops" 0 (count "down")

(* A drop-listed link counts its listed drops as queue drops, in the
   link's stats and in the trace alike.  Data packets (payload over
   500 B) alternate with 500-byte and 40-byte ones, which are never
   counted or dropped. *)
let test_drop_listed_counted () =
  let e = Engine.create () in
  let tel = Telemetry.create e () in
  Telemetry.stop tel;
  let link =
    Link.create e ~bandwidth_bps:1e9 ~delay:0
      ~qdisc:(Queue_disc.drop_listed ~drops:[ 2; 3; 5 ] ~limit_pkts:100 ())
      ~sink:ignore ()
  in
  Link.attach_telemetry link ~name:"listed" tel;
  for _ = 1 to 6 do
    Link.send link (mk_pkt ~bytes:500 ());
    Link.send link (mk_pkt ~bytes:501 ());
    Link.send link (mk_pkt ~bytes:40 ())
  done;
  Engine.run e;
  let stats = Link.stats link in
  let traced =
    List.length
      (List.filter
         (fun (ev : Telemetry.Trace.event) ->
           ev.name = "link.drop"
           && List.assoc_opt "cause" ev.args = Some (Telemetry.Trace.Str "queue"))
         (Telemetry.Trace.events (Telemetry.trace tel)))
  in
  Alcotest.(check int) "queue drops are the listed ones" 3 stats.Link.queue_drops;
  Alcotest.(check int) "every queue drop traced" stats.Link.queue_drops traced;
  Alcotest.(check int) "the rest delivered" 15 stats.Link.delivered_pkts

let () =
  Alcotest.run "netsim"
    [
      ( "addr+packet",
        [
          Alcotest.test_case "reverse" `Quick test_addr_reverse;
          Alcotest.test_case "equality" `Quick test_addr_equality;
          Alcotest.test_case "packet sizes and ids" `Quick test_packet_sizes;
          Alcotest.test_case "ecn bits round trip" `Quick test_packet_ecn_round_trip;
          Alcotest.test_case "pp golden strings" `Quick test_packet_pp_golden;
          QCheck_alcotest.to_alcotest prop_flow_table_keys;
        ] );
      ( "qdisc",
        [
          Alcotest.test_case "droptail packet limit" `Quick test_droptail_limit;
          Alcotest.test_case "droptail byte limit" `Quick test_droptail_byte_limit;
          Alcotest.test_case "droptail fifo" `Quick test_droptail_fifo;
          Alcotest.test_case "empty dequeue is Packet.dummy" `Quick test_empty_dequeue_is_dummy;
          Alcotest.test_case "red marks ecn" `Quick test_red_marks_ecn;
          Alcotest.test_case "red drops non-ect" `Quick test_red_drops_non_ect;
        ] );
      ( "link",
        [
          Alcotest.test_case "serialization rate" `Quick test_link_serialization_rate;
          Alcotest.test_case "propagation delay" `Quick test_link_propagation_delay;
          Alcotest.test_case "fifo (no reordering)" `Quick test_link_no_reorder;
          Alcotest.test_case "random loss" `Quick test_link_loss_rate;
          Alcotest.test_case "bandwidth change" `Quick test_link_bandwidth_change;
          Alcotest.test_case "probability validation" `Quick test_link_probability_validation;
          Alcotest.test_case "drop causes traced" `Quick test_link_drop_causes_traced;
          Alcotest.test_case "drop-listed drops counted" `Quick test_drop_listed_counted;
          Alcotest.test_case "back-to-back sends before run" `Quick
            test_lazy_back_to_back_before_run;
          Alcotest.test_case "send at exactly busy_until" `Quick test_lazy_send_at_busy_until;
          Alcotest.test_case "busy" `Quick test_lazy_busy;
          Alcotest.test_case "link-down kills by stamp" `Quick test_link_down_kills_by_stamp;
          Alcotest.test_case "delay change reaches the next packet" `Quick
            test_link_delay_change_next_transmission;
          QCheck_alcotest.to_alcotest prop_lazy_link_matches_eager;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "serializes work" `Quick test_cpu_serializes;
          Alcotest.test_case "zero cost immediate" `Quick test_cpu_zero_cost_is_immediate;
          Alcotest.test_case "utilization" `Quick test_cpu_utilization;
        ] );
      ( "host+router",
        [
          Alcotest.test_case "demux priority" `Quick test_host_demux_priority;
          Alcotest.test_case "unmatched counted" `Quick test_host_unmatched_counted;
          Alcotest.test_case "cpu and costs fields" `Quick test_host_cpu_and_costs_fields;
          Alcotest.test_case "tx hooks order" `Quick test_host_tx_hooks_order;
          Alcotest.test_case "port allocation" `Quick test_host_ports_unique;
          Alcotest.test_case "router forwarding" `Quick test_router_forwarding;
        ] );
    ]
