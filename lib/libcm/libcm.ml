open Cm_util
open Eventsim
open Netsim
module Ops = Ops

type mode = Select_loop | Sigio | Poll of Time.span

(* descriptors the app's select loop scans: its data socket plus the
   control socket *)
let select_nfds = 2

type t = {
  host : Host.t;
  cm : Cm.t;
  mode : mode;
  meter : Ops.meter;
  (* control socket state: flows whose write bit is set, and flows whose
     exception (status-changed) bit is set *)
  ready_send : Cm.Cm_types.flow_id Byte_queue.t;
  mutable status_changed : Cm.Cm_types.flow_id list;
  mutable dispatch_pending : bool;
  mutable dispatches : int;
  (* [dispatch t], built once: every wakeup reuses it *)
  mutable dispatch_fn : unit -> unit;
  send_cbs : (Cm.Cm_types.flow_id, Cm.Cm_types.flow_id -> unit) Hashtbl.t;
  update_cbs : (Cm.Cm_types.flow_id, Cm.Cm_types.status -> unit) Hashtbl.t;
  (* flows this process opened and has not closed: what destroy reaps *)
  owned : (Cm.Cm_types.flow_id, unit) Hashtbl.t;
  (* cm_mtu is free for the app: the library caches it at open time *)
  mtu_cache : (Cm.Cm_types.flow_id, int) Hashtbl.t;
  poll_timer : Timer.t option ref;
  mutable alive : bool;
}

let engine t = Host.engine t.host
let cm t = t.cm
let is_alive t = t.alive

let check_alive t =
  if not t.alive then invalid_arg "Libcm: process is destroyed (control socket closed)"

(* One control-socket wakeup: drain everything that is ready with a single
   ioctl per bit, then call back into the application (paper §2.2.2). *)
let dispatch t () =
  t.dispatch_pending <- false;
  if t.alive then begin
  t.dispatches <- t.dispatches + 1;
  let ready = Byte_queue.length t.ready_send in
  if ready > 0 then begin
    (* one ioctl extracts the list of all flow IDs that may send: exactly
       those queued now; grants made by the callbacks below wait for the
       next dispatch *)
    Ops.charge t.meter Ops.Ioctl_query;
    for _ = 1 to ready do
      (* an empty queue here means a callback destroyed the process *)
      if not (Byte_queue.is_empty t.ready_send) then begin
        let fid = Byte_queue.take t.ready_send in
        (* skip flows closed between grant and dispatch: their grants
           were already returned to the window by the close *)
        if Hashtbl.mem t.owned fid then
          match Hashtbl.find t.send_cbs fid with
          | cb -> cb fid
          | exception Not_found -> Cm.notify t.cm fid ~nbytes:0
      end
    done
  end;
  if t.status_changed <> [] then begin
    let fids = List.rev t.status_changed in
    t.status_changed <- [];
    List.iter
      (fun fid ->
        match Hashtbl.find_opt t.update_cbs fid with
        | Some cb ->
            (* only the current status matters: re-query at dispatch time *)
            Ops.charge t.meter Ops.Ioctl_query;
            cb (Cm.query t.cm fid)
        | None -> ())
      fids
  end
  end

let schedule_dispatch t =
  if not t.dispatch_pending then begin
    match t.mode with
    | Select_loop ->
        t.dispatch_pending <- true;
        (* the app returns from select — scanning its own descriptors plus
           the one extra control socket (the paper's Table 1 line item) *)
        Ops.charge_deferred t.meter ~nfds:select_nfds Ops.Select t.dispatch_fn
    | Sigio ->
        t.dispatch_pending <- true;
        Ops.charge_deferred t.meter Ops.Sigio t.dispatch_fn
    | Poll _ ->
        (* the poll timer picks it up on its own schedule *)
        ()
  end

let create host cm ?(mode = Select_loop) () =
  let t =
    {
      host;
      cm;
      mode;
      meter = Ops.meter host;
      ready_send = Byte_queue.create ~dummy:0 ();
      status_changed = [];
      dispatch_pending = false;
      dispatches = 0;
      dispatch_fn = ignore;
      send_cbs = Hashtbl.create 8;
      update_cbs = Hashtbl.create 8;
      owned = Hashtbl.create 8;
      mtu_cache = Hashtbl.create 8;
      poll_timer = ref None;
      alive = true;
    }
  in
  t.dispatch_fn <- dispatch t;
  (match mode with
  | Poll interval ->
      let timer =
        Timer.create (engine t) ~callback:(fun () ->
            (* non-blocking select on the control socket, then dispatch *)
            Ops.charge t.meter ~nfds:select_nfds Ops.Select;
            if (not (Byte_queue.is_empty t.ready_send)) || t.status_changed <> [] then
              t.dispatch_fn ())
      in
      Timer.start_periodic timer interval;
      t.poll_timer := Some timer
  | Select_loop | Sigio -> ());
  t

let meter t = t.meter
let mode t = t.mode

let open_flow t key =
  check_alive t;
  (* connection setup is off the data path; its one-time cost is not
     metered (the paper found setup costs indistinguishable, §4.1) *)
  let fid = Cm.open_flow t.cm key in
  Hashtbl.replace t.owned fid ();
  Hashtbl.replace t.mtu_cache fid (Cm.mtu t.cm fid);
  fid

let close_flow t fid =
  check_alive t;
  (* the CM-side close goes first: if it raises (unknown or already
     closed flow), the library keeps its callback tables, mtu cache and
     ownership record intact instead of half-forgetting the flow *)
  Cm.close_flow t.cm fid;
  Hashtbl.remove t.send_cbs fid;
  Hashtbl.remove t.update_cbs fid;
  Hashtbl.remove t.mtu_cache fid;
  Hashtbl.remove t.owned fid

let mtu t fid =
  check_alive t;
  match Hashtbl.find_opt t.mtu_cache fid with
  | Some m -> m
  | None -> Cm.mtu t.cm fid

let request t fid =
  check_alive t;
  Ops.charge t.meter Ops.Ioctl_request;
  Cm.request t.cm fid

let bulk_request t fids =
  check_alive t;
  Ops.charge t.meter Ops.Ioctl_request;
  Cm.bulk_request t.cm fids

let update t fid ~nsent ~nrecd ~loss ?rtt () =
  check_alive t;
  Ops.charge t.meter Ops.Ioctl_update;
  Cm.update t.cm fid ~nsent ~nrecd ~loss ?rtt ()

let bulk_update t entries =
  check_alive t;
  Ops.charge t.meter Ops.Ioctl_update;
  Cm.bulk_update t.cm entries

let notify t fid ~nbytes =
  check_alive t;
  Ops.charge t.meter Ops.Ioctl_notify;
  Cm.notify t.cm fid ~nbytes

let query t fid =
  check_alive t;
  Ops.charge t.meter Ops.Ioctl_query;
  Cm.query t.cm fid

let set_thresh t fid ~down ~up =
  check_alive t;
  Cm.set_thresh t.cm fid ~down ~up

let register_send t fid cb =
  check_alive t;
  Hashtbl.replace t.send_cbs fid cb;
  Cm.register_send t.cm fid (fun fid ->
      Byte_queue.push t.ready_send ~size:0 fid;
      schedule_dispatch t)

let register_update t fid cb =
  check_alive t;
  Hashtbl.replace t.update_cbs fid cb;
  Cm.register_update t.cm fid (fun _st ->
      if not (List.mem fid t.status_changed) then
        t.status_changed <- fid :: t.status_changed;
      schedule_dispatch t)

let destroy t =
  (* Simulated process death.  The control socket closes: no further
     callbacks are delivered, the poll timer stops, and the CM reaps
     every flow the process still owned — returning granted-but-unsent
     bytes to the macroflow windows immediately.  Idempotent. *)
  if t.alive then begin
    t.alive <- false;
    (match !(t.poll_timer) with
    | Some timer ->
        Timer.stop timer;
        t.poll_timer := None
    | None -> ());
    let fids = Hashtbl.fold (fun fid () acc -> fid :: acc) t.owned [] in
    List.iter (fun fid -> ignore (Cm.reap t.cm fid)) (List.sort Stdlib.compare fids);
    Hashtbl.reset t.owned;
    Hashtbl.reset t.mtu_cache;
    Hashtbl.reset t.send_cbs;
    Hashtbl.reset t.update_cbs;
    Byte_queue.clear t.ready_send;
    t.status_changed <- []
  end

let app_send t ~bytes = Ops.charge t.meter ~bytes Ops.Send
let app_recv t ~bytes = Ops.charge t.meter ~bytes Ops.Recv
let app_gettimeofday t = Ops.charge t.meter Ops.Gettimeofday
let dispatches t = t.dispatches
