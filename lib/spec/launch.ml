open Cm_util
open Eventsim
open Netsim

(* Final stage of the spec pipeline: project flow groups onto running
   applications.  Every socket, session, source and agent is created up
   front, and every start is scheduled, in declaration order (groups,
   then sources within a group), so launches are deterministic; flow [i]
   of a group starts at [start + i*stagger]. *)

(* Periodic refills share one timer per period, which refills its
   started sources in start order: backlogged sources on one period cost
   one tick between them, as one hand-written feeder loop would.  The
   timer runs from the first source's start until every source that has
   joined it is stopped. *)
type ticker = { timer : Timer.t; period : Time.span; fills : pump Queue.t }
and pump = { ticker : ticker; fill : unit -> unit; mutable stopped : bool }

type datagrams = { socket : Udp.Cc_socket.t; echo : Udp.Feedback.Receiver.t; d_pump : pump }

type session = {
  session : Cmproto.Session.t;
  agent : Cmproto.Sender_agent.t;
  receiver : Cmproto.Receiver_agent.t;
  s_pump : pump;
}

type outcome =
  | Pending
  | Transfer of Cm_apps.Bulk.t
  | Fetched of { at : Time.t; fetches : Cm_apps.Web.fetch_result list }
  | Streaming of Cm_apps.Layered.t
  | Datagrams of datagrams
  | Session of session

type running = { rg : Check.group; outcomes : outcome array }

let join p =
  let t = p.ticker in
  if not p.stopped then begin
    if not (Timer.is_running t.timer) then Timer.start_periodic t.timer t.period;
    Queue.add p t.fills
  end

let leave p =
  let t = p.ticker in
  p.stopped <- true;
  if Queue.fold (fun idle q -> idle && q.stopped) true t.fills then Timer.stop t.timer

(* A backlogged datagram source keeps this many 1000 B datagrams queued. *)
let backlog = 64
let datagram_bytes = 1000

let host_of (b : Build.t) i =
  match b.Build.impls.(i) with
  | Build.Host_impl h -> h
  | Build.Router_impl _ -> assert false (* router endpoints rejected statically *)

let addr_of (b : Build.t) i = b.Build.ir.Check.ir_nodes.(i).Check.n_addr
let name_of (b : Build.t) i = b.Build.ir.Check.ir_nodes.(i).Check.n_name
let endpoint b (g : Check.group) port = Addr.endpoint ~host:(addr_of b g.Check.g_dst) ~port

(* A Bulk group's byte count as ttcp sends it: whole 8 KiB buffers,
   rounded up. *)
let bulk_bytes bytes =
  let buffer_bytes = Int.min bytes 8192 in
  (bytes + buffer_bytes - 1) / buffer_bytes * buffer_bytes

(* [memo tbl key make]: the value bound to [key], made on first use. *)
let memo tbl key make =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
      let v = make () in
      Hashtbl.replace tbl key v;
      v

let stop_outcome = function
  | Streaming s -> Cm_apps.Layered.stop s
  | Datagrams d -> leave d.d_pump
  | Session s -> leave s.s_pump
  | Pending | Transfer _ | Fetched _ -> ()

let run ?telemetry (b : Build.t) ?(driver_for = Build.driver b) () =
  let engine = b.Build.engine in
  let servers = Hashtbl.create 8 in
  let senders = Hashtbl.create 4 and receivers = Hashtbl.create 4 in
  let tickers = Hashtbl.create 4 in
  let pump period fill =
    let ticker =
      memo tickers period (fun () ->
          let fills = Queue.create () in
          let tick () = Queue.iter (fun p -> if not p.stopped then p.fill ()) fills in
          { timer = Timer.create engine ~callback:tick; period; fills })
    in
    { ticker; fill; stopped = false }
  in
  Array.to_list b.Build.ir.Check.ir_groups
  |> List.map (fun (g : Check.group) ->
         let dst_h = host_of b g.Check.g_dst in
         let outcomes = Array.make (Array.length g.Check.g_srcs) Pending in
         (* one shared web server per (dst, port), whatever group asks first *)
         (match g.Check.g_app with
         | Spec.Web_fetch { object_bytes; _ } ->
             memo servers (g.Check.g_dst, g.Check.g_port) (fun () ->
                 ignore
                   (Cm_apps.Web.server dst_h ~port:g.Check.g_port ~file_bytes:object_bytes
                      ?driver:(driver_for dst_h) ()))
         | Spec.Bulk _ | Spec.Layered _ | Spec.Datagram _ | Spec.Cmproto_session _ -> ());
         let at t0 f = ignore (Engine.schedule_at engine t0 f) in
         Array.iteri
           (fun i si ->
             let src = host_of b si in
             let t0 = Time.add g.Check.g_start (i * g.Check.g_stagger) in
             let port = g.Check.g_port + i in
             match g.Check.g_app with
             | Spec.Bulk { bytes } ->
                 let transfer = Cm_apps.Bulk.create ~bytes:(bulk_bytes bytes) in
                 outcomes.(i) <- Transfer transfer;
                 at t0 (fun () ->
                     Cm_apps.Bulk.tcp_push transfer ~src ~dst_host:dst_h ~port
                       ?driver:(driver_for src) ())
             | Spec.Web_fetch { object_bytes; count; gap } ->
                 let dst = endpoint b g g.Check.g_port in
                 at t0 (fun () ->
                     Cm_apps.Web.sequential_fetches src ~dst ~expect_bytes:object_bytes ~count ~gap
                       ?driver:(driver_for src)
                       ~on_done:(fun fetches ->
                         outcomes.(i) <- Fetched { at = Engine.now engine; fetches })
                       ())
             | Spec.Layered { layers; packet_bytes; mode; batch } ->
                 let lib = Build.libcm b (name_of b si) in
                 ignore (Udp.Cc_socket.run_echo_receiver dst_h ~port ?batch ());
                 (* a batching receiver is silent for up to [d]: tolerate
                    twice that before declaring loss *)
                 let feedback_timeout =
                   Option.map (fun (_, d) -> Time.add (2 * d) (Time.ms 500)) batch
                 in
                 let source =
                   Cm_apps.Layered.create lib ~host:src ~dst:(endpoint b g port) ~layers ~mode
                     ~packet_bytes ?feedback_timeout ()
                 in
                 outcomes.(i) <- Streaming source;
                 at t0 (fun () -> Cm_apps.Layered.start source)
             | Spec.Datagram { refill } ->
                 let cm = Build.cm b (name_of b si) in
                 let echo = Udp.Cc_socket.run_echo_receiver dst_h ~port () in
                 let socket = Udp.Cc_socket.create src ~cm ~dst:(endpoint b g port) () in
                 let fill () =
                   for _ = 1 to backlog - Udp.Cc_socket.queued socket do
                     Udp.Cc_socket.send socket datagram_bytes
                   done
                 in
                 let d_pump = pump refill fill in
                 outcomes.(i) <- Datagrams { socket; echo; d_pump };
                 at t0 (fun () ->
                     if not d_pump.stopped then fill ();
                     join d_pump)
             | Spec.Cmproto_session { packet_bytes; window; ack_every; pump = period; packets } ->
                 let cm = Build.cm b (name_of b si) in
                 let agent =
                   memo senders si (fun () ->
                       let agent = Cmproto.Sender_agent.install src cm in
                       Option.iter (Cmproto.Sender_agent.register_gauges agent) telemetry;
                       agent)
                 in
                 let receiver =
                   memo receivers g.Check.g_dst (fun () ->
                       Cmproto.Receiver_agent.install dst_h ~ack_every ())
                 in
                 let session =
                   Cmproto.Session.create agent ~host:src ~cm ~dst:(endpoint b g port)
                     ~queue_limit_pkts:(2 * window) ()
                 in
                 let budget = ref (Option.value packets ~default:max_int) in
                 let fill () =
                   while !budget > 0 && Cmproto.Session.queued session < window do
                     decr budget;
                     Cmproto.Session.send session packet_bytes
                   done
                 in
                 let s_pump = pump period fill in
                 outcomes.(i) <- Session { session; agent; receiver; s_pump };
                 at t0 (fun () -> join s_pump))
           g.Check.g_srcs;
         Option.iter (fun t -> at t (fun () -> Array.iter stop_outcome outcomes)) g.Check.g_stop;
         { rg = g; outcomes })

let stop r = Array.iter stop_outcome r.outcomes

let done_count r =
  Array.fold_left
    (fun n -> function
      | Transfer { Cm_apps.Bulk.finished_at = Some _; _ } | Fetched _ -> n + 1
      | Pending | Transfer _ | Streaming _ | Datagrams _ | Session _ -> n)
    0 r.outcomes

let find (rs : running list) name =
  match List.find_opt (fun r -> r.rg.Check.g_name = name) rs with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Launch.find: no flow group %S" name)

let wrong r what =
  invalid_arg (Printf.sprintf "Launch.%s: flow group %S runs no %s" what r.rg.Check.g_name what)

let transfer r i = match r.outcomes.(i) with Transfer t -> t | _ -> wrong r "transfer"
let stream r i = match r.outcomes.(i) with Streaming s -> s | _ -> wrong r "stream"
let datagrams r i = match r.outcomes.(i) with Datagrams d -> d | _ -> wrong r "datagrams"
let session r i = match r.outcomes.(i) with Session s -> s | _ -> wrong r "session"
