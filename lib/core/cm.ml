open Cm_util
open Netsim
open Eventsim

(* Re-export the library's public submodules so that users see
   [Cm.Controller], [Cm.Scheduler], [Cm.Macroflow] and [Cm.Cm_types]. *)
module Cm_types = Cm_types
module Controller = Controller
module Scheduler = Scheduler
module Macroflow = Macroflow

(* For tables whose iteration order reaches output: [Int.hash] is
   [Hashtbl.hash], so a generic table's buckets and order. *)
module Id_table = Hashtbl.Make (Int)

(* Field order is deliberate: the fields every request/notify/update
   touches (id and liveness, macroflow and member pointers, the ledger)
   come first so the per-packet paths stay within the record's leading
   cache lines; close-path and policy fields trail. *)
type flow = {
  fid : Cm_types.flow_id;
  mutable open_ : bool;
  mutable mf : Macroflow.t;
  (* the flow's member handle within [mf]: its scheduler slot and grant
     chain, so request/notify/teardown reach macroflow state by pointer
     instead of by id lookup; rewired by [move_flow] *)
  mutable fl_mem : Macroflow.member;
  mutable send_cb : (Cm_types.flow_id -> unit) option;
  (* per-flow cross-check ledger (bytes, cumulative since open).  The
     misbehaviour auditor compares these: an honest client keeps
     notified ≲ granted and nsent ≤ charged. *)
  mutable a_granted : int; (* grant bytes reserved for this flow *)
  mutable a_notified : int; (* bytes the client claims to have transmitted *)
  mutable a_charged : int; (* bytes actually charged to the window *)
  mutable a_nsent : int; (* bytes resolved by accepted cm_update feedback *)
  mutable last_update : Time.t;
  (* the member index of [mf], cached so the per-update watcher check is a
     field read instead of a hash lookup; refreshed by [index_add] *)
  mutable fl_ix : mf_index;
  key : Addr.flow;
  mutable update_cb : (Cm_types.status -> unit) option;
  mutable thresh_down : float;
  mutable thresh_up : float;
  mutable last_reported_rate : float;
  mutable update_pending : bool;
  mutable last_inflation : Time.t; (* rate limiter for charge-inflation strikes *)
  mutable suspicion : int;
  mutable quarantined : bool;
}

(* Reverse index: the open flows attached to one macroflow, plus how many
   of them registered a rate callback.  Every per-grant / per-update /
   per-tick control path walks this member set (or skips it outright when
   no member watches rates) instead of folding over the global flow table,
   so the cost of serving one macroflow no longer grows with the number of
   flows the CM serves overall. *)
and mf_index = {
  mx_flows : flow Id_table.t;
  mutable mx_watchers : int; (* members with an update_cb registered *)
}

type counters = {
  opens : int;
  closes : int;
  requests : int;
  grants : int;
  updates : int;
  notifies : int;
  declined_grants : int;
  rejected_updates : int;
  rejected_notifies : int;
  quarantines : int;
  reaps : int;
}

type auditor = {
  grant_slack_pkts : int;
  overclaim_slack_pkts : int;
  inflation_slack_pkts : int;
  silent_after : Time.span;
  quarantine_threshold : int;
  policed_controller : Controller.factory;
}

let default_auditor =
  {
    grant_slack_pkts = 64;
    overclaim_slack_pkts = 2;
    inflation_slack_pkts = 16;
    silent_after = Time.ms 1_000;
    quarantine_threshold = 3;
    policed_controller = Controller.aimd ~initial_window_pkts:1 ~max_window:(4 * 1500) ();
  }

type aggregation = By_destination | By_destination_and_dscp

(* macroflow aggregation key: destination host — "all flows destined to the
   same end host take the same path in the common case" (§2) — plus,
   optionally, the differentiated-services codepoint: under diffserv,
   flows to one host with different service classes no longer share a
   bottleneck fate (§5), packed as [host * 64 + dscp] ([Addr.flow] keeps
   the codepoint below 64) *)
type mf_key = int

(* Dense flow directory with id recycling.  A flow id packs a slot index
   (low 24 bits) and a generation (high bits), so the per-packet API
   paths (request / notify / update / grant delivery, each of which
   starts with a lookup by id) still index an array directly instead of
   probing a hash table — one predictable load plus a generation compare,
   no bucket chase.  On close the slot's generation is bumped and the
   slot goes on a free list: capacity is bounded by peak concurrency
   rather than flows ever opened, and a lookup through a stale id (old
   generation) misses, mirroring the engine's stamped event handles.
   Slot 0 is never issued, so the first ids are 1, 2, 3, ... exactly as
   the pre-recycling sequential allocator handed out. *)
module Fid_dir = struct
  let slot_bits = 24
  let slot_mask = (1 lsl slot_bits) - 1

  (* Empty slots hold [miss], a dummy tenant the owner supplies, so slots
     store tenants directly rather than behind an option box: the hot
     lookup is one load, with no per-alloc [Some] cell.  The CM's dummy
     is a flow record that is never open and whose id no slot issues, so
     the callers' own [fl.fid = fid && fl.open_] check rejects it. *)
  type 'a t = {
    miss : 'a;
    mutable arr : 'a array; (* slot -> current tenant, or [miss] *)
    mutable gen : int array; (* slot -> generation of the current tenant *)
    mutable free : int list; (* recycled slots, LIFO *)
    mutable high : int; (* watermark: slots in [1, high) have been issued *)
    mutable count : int; (* live entries, O(1) for the cm.flows gauge *)
  }

  let create ~miss n =
    {
      miss;
      arr = Array.make (Int.max 2 n) miss;
      gen = Array.make (Int.max 2 n) 0;
      free = [];
      high = 1;
      count = 0;
    }

  (* distinct slots ever issued: the memory bound the recycle test pins *)
  let capacity t = t.high - 1

  (* [find] does not compare generations: the id embeds the generation in
     its high bits, and every caller re-checks the tenant's own stored id
     against the query ([fl.fid = fid]), which subsumes the generation
     compare without a second array load here. *)
  let find t fid =
    let slot = fid land slot_mask in
    if slot > 0 && slot < t.high then Array.unsafe_get t.arr slot else t.miss

  (* [alloc t mk] picks a slot, forms the id, and stores [mk id]; the
     two happen together because the tenant record holds its own id in
     an immutable field. *)
  let alloc t mk =
    let slot =
      match t.free with
      | s :: rest ->
          t.free <- rest;
          s
      | [] ->
          let s = t.high in
          if s > slot_mask then failwith "Fid_dir: out of flow-id slots";
          t.high <- t.high + 1;
          if s >= Array.length t.arr then begin
            let cap = 2 * Array.length t.arr in
            let grown = Array.make cap t.miss in
            Array.blit t.arr 0 grown 0 (Array.length t.arr);
            t.arr <- grown;
            let grown_gen = Array.make cap 0 in
            Array.blit t.gen 0 grown_gen 0 (Array.length t.gen);
            t.gen <- grown_gen
          end;
          s
    in
    let fid = (t.gen.(slot) lsl slot_bits) lor slot in
    t.arr.(slot) <- mk fid;
    t.count <- t.count + 1;
    fid

  let remove t fid =
    let slot = fid land slot_mask in
    if
      slot > 0 && slot < t.high
      && t.gen.(slot) = fid asr slot_bits
      && Array.unsafe_get t.arr slot != t.miss
    then begin
      t.arr.(slot) <- t.miss;
      t.count <- t.count - 1;
      (* retire this generation: lookups through the old id now miss *)
      t.gen.(slot) <- t.gen.(slot) + 1;
      t.free <- slot :: t.free
    end

  let length t = t.count

  let iter f t =
    for slot = 1 to t.high - 1 do
      let v = Array.unsafe_get t.arr slot in
      if v != t.miss then f ((t.gen.(slot) lsl slot_bits) lor slot) v
    done

  let fold f t acc =
    let acc = ref acc in
    iter (fun fid v -> acc := f fid v !acc) t;
    !acc
end

type t = {
  engine : Engine.t;
  mtu : int;
  aggregation : aggregation;
  controller : Controller.factory;
  scheduler : Scheduler.factory;
  grant_reclaim_after : Time.span option;
  idle_restart : Time.span option;
  watchdog : Macroflow.watchdog option;
  auditor : auditor option;
  canary_grant_leak : bool; (* mutation canary, see [Macroflow.release_flow_grants] *)
  flows_by_id : flow Fid_dir.t;
  flows_by_key : Cm_types.flow_id Addr.Flow_table.t;
  default_mf : Macroflow.t Int_table.t; (* per-destination macroflows *)
  default_ids : unit Int_table.t; (* ids of the default_mf values *)
  all_mf : Macroflow.t Id_table.t; (* every macroflow ever created *)
  mf_index : mf_index Int_table.t; (* live macroflow id -> members *)
  mutable next_mfid : int;
  mutable c_opens : int;
  mutable c_closes : int;
  mutable c_requests : int;
  mutable c_grants : int;
  mutable c_updates : int;
  mutable c_notifies : int;
  mutable c_declined : int;
  mutable c_rejected_updates : int;
  mutable c_rejected_notifies : int;
  mutable c_quarantines : int;
  mutable c_reaps : int;
  mutable c_released_grant_bytes : int;
  (* work counter for the scaling tests: macroflows examined by the
     close/reap teardown path.  Constant per close by construction; the
     counter-based regression test pins that contract without relying on
     wall clocks. *)
  mutable c_teardown_probes : int;
  (* telemetry: None (and the nil trace) until [attach_telemetry] *)
  mutable telemetry : Telemetry.t option;
  mutable trace : Telemetry.Trace.t;
  (* every macroflow's [deliver_grant]: one closure per CM *)
  grant_hook : Macroflow.t -> Macroflow.member -> reserved:int -> unit;
}

(* placeholder index for a flow between construction and [index_add] —
   never walked (its watcher count stays 0) *)
let nil_ix = { mx_flows = Id_table.create 1; mx_watchers = 0 }

(* A just-opened flow, before it joins its macroflow. *)
let new_flow engine ~fid ~key ~mf =
  {
    fid;
    key;
    mf;
    send_cb = None;
    update_cb = None;
    thresh_down = 0.5;
    thresh_up = 2.0;
    last_reported_rate = 0.;
    update_pending = false;
    open_ = true;
    a_granted = 0;
    a_notified = 0;
    a_charged = 0;
    a_nsent = 0;
    last_update = Engine.now engine;
    last_inflation = Engine.now engine;
    suspicion = 0;
    quarantined = false;
    fl_ix = nil_ix;
    fl_mem = Macroflow.nil_member;
  }

(* The flow directory's empty-slot tenant: never open, and id 0, which
   no slot issues. *)
let no_flow engine =
  let nowhere = Addr.endpoint ~host:(-1) ~port:0 in
  let key = Addr.flow ~src:nowhere ~dst:nowhere ~proto:Addr.Udp () in
  let fl = new_flow engine ~fid:0 ~key ~mf:(Macroflow.placeholder engine) in
  fl.open_ <- false;
  fl

(* ---- grant dispatch --------------------------------------------------- *)

(* bytes charged to the window whose fate no accepted feedback has
   resolved; what close/crash must discharge and quarantine must carry *)
let unresolved fl = Int.max 0 (fl.a_charged - fl.a_nsent)

let deliver_grant t mf m ~reserved =
  t.c_grants <- t.c_grants + 1;
  let fid = Macroflow.member_fid m in
  let fl = Fid_dir.find t.flows_by_id fid in
  if fl.fid = fid && fl.open_ then begin
    ignore reserved;
    (* a grant permits up to one MTU regardless of what the macroflow
       reserved (the learned average may round well below what the
       client actually sends), so the misbehaviour allowance accrues a
       full MTU per grant — honest full-sized senders never drift *)
    fl.a_granted <- fl.a_granted + t.mtu;
    match fl.send_cb with
    | Some cb -> cb fid
    | None ->
        t.c_declined <- t.c_declined + 1;
        Macroflow.notify fl.mf ~m:fl.fl_mem ~nbytes:0 ()
  end
  else begin
    (* the flow vanished between request and grant: return the grant *)
    t.c_declined <- t.c_declined + 1;
    Macroflow.notify mf ~m ~nbytes:0 ()
  end

let create engine ?(mtu = 1448) ?(aggregation = By_destination)
    ?(controller = Controller.aimd ()) ?(scheduler = Scheduler.round_robin)
    ?grant_reclaim_after ?idle_restart ?feedback_watchdog ?auditor ?(canary_grant_leak = false)
    () =
  let rec t =
    {
      engine;
      mtu;
      aggregation;
      controller;
      scheduler;
      grant_reclaim_after;
      idle_restart;
      watchdog = feedback_watchdog;
      auditor;
      canary_grant_leak;
      flows_by_id = Fid_dir.create ~miss:(no_flow engine) 64;
      flows_by_key = Addr.Flow_table.create 64;
      default_mf = Int_table.create 16;
      default_ids = Int_table.create 16;
      all_mf = Id_table.create 16;
      mf_index = Int_table.create 16;
      next_mfid = 1;
      c_opens = 0;
      c_closes = 0;
      c_requests = 0;
      c_grants = 0;
      c_updates = 0;
      c_notifies = 0;
      c_declined = 0;
      c_rejected_updates = 0;
      c_rejected_notifies = 0;
      c_quarantines = 0;
      c_reaps = 0;
      c_released_grant_bytes = 0;
      c_teardown_probes = 0;
      telemetry = None;
      trace = Telemetry.Trace.nil;
      grant_hook = (fun mf m ~reserved -> deliver_grant t mf m ~reserved);
    }
  in
  t

let engine t = t.engine

(* The generation check is the [fl.fid = fid] compare: a stale id (its
   slot since recycled) reaches a tenant whose stored id differs. *)
let get_flow t fid =
  let fl = Fid_dir.find t.flows_by_id fid in
  if fl.fid = fid && fl.open_ then fl
  else invalid_arg (Printf.sprintf "Cm: unknown or closed flow %d" fid)

(* ---- macroflow reverse index ------------------------------------------ *)

let index_of t mfid =
  match Int_table.find_opt t.mf_index mfid with
  | Some ix -> ix
  | None ->
      let ix = { mx_flows = Id_table.create 8; mx_watchers = 0 } in
      Int_table.replace t.mf_index mfid ix;
      ix

let index_add t mf fl =
  let ix = index_of t (Macroflow.id mf) in
  fl.fl_ix <- ix;
  Id_table.replace ix.mx_flows fl.fid fl;
  if fl.update_cb <> None then ix.mx_watchers <- ix.mx_watchers + 1

let index_remove t mf fl =
  match Int_table.find_opt t.mf_index (Macroflow.id mf) with
  | None -> ()
  | Some ix ->
      if Id_table.mem ix.mx_flows fl.fid then begin
        Id_table.remove ix.mx_flows fl.fid;
        if fl.update_cb <> None then ix.mx_watchers <- ix.mx_watchers - 1
      end

(* ---- rate-change callbacks ------------------------------------------- *)

let flow_rate fl =
  let members = Int.max 1 (Macroflow.members fl.mf) in
  Macroflow.rate_bps fl.mf /. float_of_int members

let flow_status fl =
  let st = Macroflow.status fl.mf in
  { st with Cm_types.rate_bps = flow_rate fl }

(* Rate apportioning: when a macroflow's estimate moves, check only that
   macroflow's members — and skip even that walk when none of them
   registered a rate callback (the common case for kernel clients).  The
   old implementation folded over every flow the CM had ever opened, which
   made each cm_update O(total flows). *)
let check_rate_callbacks t ix =
  if ix.mx_watchers > 0 then begin
    let consider _ fl =
        if fl.open_ then begin
          match fl.update_cb with
          | None -> ()
          | Some cb ->
              let rate = flow_rate fl in
              let last = fl.last_reported_rate in
              let crossed =
                last <= 0.
                || rate <= last *. fl.thresh_down
                || rate >= last *. fl.thresh_up
              in
              if crossed && rate > 0. && not fl.update_pending then begin
                fl.update_pending <- true;
                Engine.post t.engine 0 (fun () ->
                    fl.update_pending <- false;
                    if fl.open_ then begin
                      fl.last_reported_rate <- flow_rate fl;
                      cb (flow_status fl)
                    end)
              end
        end
    in
    Id_table.iter consider ix.mx_flows
  end

(* ---- macroflow lifecycle ---------------------------------------------- *)

(* Subscribe a macroflow's congestion internals — the CM state the paper's
   figures plot — as sampled time series, and route its trace events to
   the live sink.  Gauges survive macroflow shutdown harmlessly (they read
   plain fields), and late wiring is fine: the sampler back-fills earlier
   ticks with blanks. *)
let wire_macroflow_telemetry t mf =
  (* [t.trace] is the attached instance's trace (a bounded ring under the
     flight recorder) or nil before [attach_telemetry] *)
  Macroflow.set_trace mf t.trace;
  match t.telemetry with
  | None -> ()
  | Some tel ->
      let p = Printf.sprintf "mf%d." (Macroflow.id mf) in
      Telemetry.gauge tel (p ^ "cwnd") (fun () -> float_of_int (Macroflow.cwnd mf));
      Telemetry.gauge tel (p ^ "ssthresh") (fun () -> float_of_int (Macroflow.ssthresh mf));
      Telemetry.gauge tel (p ^ "rate_bps") (fun () -> Macroflow.rate_bps mf);
      Telemetry.gauge tel (p ^ "srtt_us") (fun () ->
          match Macroflow.srtt mf with
          | Some s -> float_of_int s /. 1e3
          | None -> Float.nan);
      Telemetry.gauge tel (p ^ "pipe") (fun () ->
          float_of_int (Macroflow.outstanding mf + Macroflow.granted mf));
      Telemetry.gauge tel (p ^ "granted") (fun () -> float_of_int (Macroflow.granted mf));
      Telemetry.gauge tel (p ^ "pending") (fun () ->
          float_of_int (Macroflow.pending_requests mf));
      Telemetry.gauge tel (p ^ "loss_rate") (fun () -> Macroflow.loss_rate mf)

let drop_membership t mf =
  let mfid = Macroflow.id mf in
  let members = Macroflow.members mf in
  t.c_teardown_probes <- t.c_teardown_probes + 1;
  (* Per-destination macroflows persist after their last flow closes: the
     congestion state they hold is exactly what lets a subsequent
     connection to the same host skip slow start (paper §4.3, Fig. 7).
     Only detached (split-off) macroflows are discarded when empty.  The
     default check is one membership probe in [default_ids] — the old
     fold over every per-destination macroflow made each close O(hosts
     ever contacted). *)
  let is_default = Int_table.mem t.default_ids mfid in
  if members = 0 && not is_default then begin
    Macroflow.shutdown mf;
    Int_table.remove t.mf_index mfid
  end

let move_flow t fl target_mf =
  let old_mf = fl.mf in
  if Macroflow.id old_mf <> Macroflow.id target_mf then begin
    (* carry this flow's pending requests over to the new macroflow, give
       back any grants it was sitting on, and take its unresolved charge
       along so the old macroflow's window reopens immediately *)
    let requests_to_move = Macroflow.pending_for_flow old_mf fl.fl_mem in
    let released =
      Macroflow.release_flow_grants ~canary_grant_leak:t.canary_grant_leak old_mf fl.fl_mem
    in
    t.c_released_grant_bytes <- t.c_released_grant_bytes + released;
    Macroflow.transfer_outstanding ~src:old_mf ~dst:target_mf (unresolved fl);
    Macroflow.detach_flow old_mf fl.fl_mem;
    index_remove t old_mf fl;
    fl.mf <- target_mf;
    fl.fl_mem <- Macroflow.add_member target_mf fl.fid;
    index_add t target_mf fl;
    for _ = 1 to requests_to_move do
      Macroflow.request target_mf fl.fl_mem
    done;
    drop_membership t old_mf
  end

let rec new_macroflow ?controller t =
  let mfid = t.next_mfid in
  t.next_mfid <- t.next_mfid + 1;
  let controller = Option.value controller ~default:t.controller in
  let on_reclaim, on_tick =
    match t.auditor with
    | None -> (None, None)
    | Some a ->
        ( Some
            (fun fid _reserved ->
              let fl = Fid_dir.find t.flows_by_id fid in
              if fl.fid = fid && fl.open_ then
                suspect t a fl "grant_hoard"),
          Some (fun mf -> audit_tick t a mf) )
  in
  let mf =
    Macroflow.create t.engine ~id:mfid ~mtu:t.mtu ~controller ~scheduler:t.scheduler
      ~deliver_grant:t.grant_hook
      ~on_state_change:(fun () -> ())
      ?on_reclaim ?on_tick ?watchdog:t.watchdog ?grant_reclaim_after:t.grant_reclaim_after
      ?idle_restart:t.idle_restart ()
  in
  Id_table.replace t.all_mf mfid mf;
  wire_macroflow_telemetry t mf;
  mf

(* ---- misbehaviour scoring & quarantine -------------------------------- *)

and suspect t a fl reason =
  fl.suspicion <- fl.suspicion + 1;
  if Telemetry.Trace.on t.trace then
    Telemetry.Trace.instant t.trace ~cat:"cm" "cm.suspect"
      [
        ("flow", Telemetry.Trace.Int fl.fid);
        ("reason", Telemetry.Trace.Str reason);
        ("score", Telemetry.Trace.Int fl.suspicion);
      ];
  if (not fl.quarantined) && fl.suspicion >= a.quarantine_threshold then quarantine t a fl

and quarantine t a fl =
  (* Split the offender into its own macroflow with a conservative,
     tightly-capped controller: it can no longer consume the honest
     macroflow's window, and its unresolved charge leaves with it. *)
  fl.quarantined <- true;
  t.c_quarantines <- t.c_quarantines + 1;
  if Telemetry.Trace.on t.trace then
    Telemetry.Trace.instant t.trace ~cat:"cm" "cm.quarantine"
      [
        ("flow", Telemetry.Trace.Int fl.fid);
        ("score", Telemetry.Trace.Int fl.suspicion);
        ("from_mf", Telemetry.Trace.Int (Macroflow.id fl.mf));
      ];
  let policed = new_macroflow ~controller:a.policed_controller t in
  move_flow t fl policed

(* per-flow staleness audit, run from each macroflow's maintenance tick:
   a flow holding unresolved window charge that has not sent feedback for
   [silent_after] is suspect even when honest peers keep the macroflow's
   own feedback clock fresh *)
and audit_tick t a mf =
  let now = Engine.now t.engine in
  let members =
    match Int_table.find_opt t.mf_index (Macroflow.id mf) with
    | Some ix -> ix.mx_flows
    | None -> Id_table.create 0
  in
  Id_table.iter
    (fun _ fl ->
      if fl.open_ && not fl.quarantined then begin
        if
          unresolved fl > 2 * t.mtu
          && Time.diff now fl.last_update > a.silent_after
        then begin
          (* one strike per silent_after: the timestamp doubles as the
             rate limiter *)
          fl.last_update <- now;
          suspect t a fl "silent"
        end;
        (* charge inflation: a flow can keep its feedback fresh while its
           charged-but-never-resolved bytes grow without bound (e.g. a
           double-notifier, whose phantom charges no feedback will ever
           explain).  Honest unresolved charge is bounded by the pipe:
           inflight plus lost-but-not-yet-declared bytes (each at most a
           window) plus a feedback delay's worth of throughput (about
           another window) — three windows plus a fixed slack.  The bound
           must track cwnd: phantom charge blocks the window, collapsing
           cwnd, and a fixed-only bound would let the attack deadlock the
           macroflow while sitting just under the threshold. *)
        if
          unresolved fl > (3 * Macroflow.cwnd fl.mf) + (a.inflation_slack_pkts * t.mtu)
          && Time.diff now fl.last_inflation > a.silent_after
        then begin
          fl.last_inflation <- now;
          suspect t a fl "charge_inflation"
        end
      end)
    members

let mf_key_of t (key : Addr.flow) : mf_key =
  (key.Addr.dst.Addr.host * 64)
  + match t.aggregation with By_destination -> 0 | By_destination_and_dscp -> key.Addr.dscp

let macroflow_for_key t k =
  match Int_table.find_opt t.default_mf k with
  | Some mf -> mf
  | None ->
      let mf = new_macroflow t in
      Int_table.replace t.default_mf k mf;
      Int_table.replace t.default_ids (Macroflow.id mf) ();
      mf

(* ---- public API -------------------------------------------------------- *)

let open_flow t key =
  if Addr.Flow_table.mem t.flows_by_key key then
    invalid_arg (Format.asprintf "Cm.open_flow: %a already open" Addr.pp_flow key);
  let mf = macroflow_for_key t (mf_key_of t key) in
  let fid =
    Fid_dir.alloc t.flows_by_id (fun fid -> new_flow t.engine ~fid ~key ~mf)
  in
  let fl = Fid_dir.find t.flows_by_id fid in
  assert (fl.fid = fid);
  fl.fl_mem <- Macroflow.add_member mf fid;
  Addr.Flow_table.replace t.flows_by_key key fid;
  index_add t mf fl;
  t.c_opens <- t.c_opens + 1;
  if Telemetry.Trace.on t.trace then
    Telemetry.Trace.instant t.trace ~cat:"cm" "cm.open"
      [
        ("flow", Telemetry.Trace.Int fid);
        ("mf", Telemetry.Trace.Int (Macroflow.id mf));
        ("key", Telemetry.Trace.Str (Format.asprintf "%a" Addr.pp_flow key));
      ];
  fid

(* shared teardown for close (voluntary) and reap (crash): give the
   flow's unconsumed grants back to the window immediately — not via the
   500 ms reclaim timer — and discharge its unresolved bytes, whose fate
   no feedback can ever resolve once the flow is gone *)
let remove_flow t fl ~event =
  index_remove t fl.mf fl;
  fl.open_ <- false;
  let released =
    Macroflow.release_flow_grants ~canary_grant_leak:t.canary_grant_leak fl.mf fl.fl_mem
  in
  t.c_released_grant_bytes <- t.c_released_grant_bytes + released;
  Macroflow.discharge fl.mf (unresolved fl);
  Macroflow.detach_flow fl.mf fl.fl_mem;
  Addr.Flow_table.remove t.flows_by_key fl.key;
  Fid_dir.remove t.flows_by_id fl.fid;
  if Telemetry.Trace.on t.trace then
    Telemetry.Trace.instant t.trace ~cat:"cm" event
      [ ("flow", Telemetry.Trace.Int fl.fid); ("mf", Telemetry.Trace.Int (Macroflow.id fl.mf)) ];
  drop_membership t fl.mf

let close_flow t fid =
  let fl = get_flow t fid in
  t.c_closes <- t.c_closes + 1;
  remove_flow t fl ~event:"cm.close"

let reap t fid =
  (* crash-tolerant close: never raises, reports whether anything was
     reaped.  Libcm.destroy calls this for every flow of a dead process. *)
  let fl = Fid_dir.find t.flows_by_id fid in
  if fl.fid = fid && fl.open_ then begin
    t.c_reaps <- t.c_reaps + 1;
    remove_flow t fl ~event:"cm.reap";
    true
  end
  else false

let mtu t fid =
  let _fl = get_flow t fid in
  t.mtu

let register_send t fid cb =
  let fl = get_flow t fid in
  fl.send_cb <- Some cb

let register_update t fid cb =
  let fl = get_flow t fid in
  (* first registration turns this flow into a rate watcher; the member
     index counts watchers so updates on watcher-free macroflows skip the
     apportioning walk entirely *)
  if fl.update_cb = None then begin
    match Int_table.find_opt t.mf_index (Macroflow.id fl.mf) with
    | Some ix -> ix.mx_watchers <- ix.mx_watchers + 1
    | None -> ()
  end;
  fl.update_cb <- Some cb

let set_thresh t fid ~down ~up =
  if not (down > 0. && down < 1. && up > 1.) then
    invalid_arg "Cm.set_thresh: need 0 < down < 1 < up";
  let fl = get_flow t fid in
  fl.thresh_down <- down;
  fl.thresh_up <- up

let request t fid =
  let fl = get_flow t fid in
  t.c_requests <- t.c_requests + 1;
  Macroflow.request fl.mf fl.fl_mem

let update t fid ~nsent ~nrecd ~loss ?rtt () =
  let fl = get_flow t fid in
  t.c_updates <- t.c_updates + 1;
  let accept =
    match t.auditor with
    | None -> true
    | Some a ->
        (* kernel-facing path: inconsistent feedback is rejected and
           counted, never raised.  A client cannot resolve more bytes
           than it was ever charged for sending — claiming otherwise is
           how a liar inflates the shared window. *)
        if nsent < 0 || nrecd < 0 || nrecd > nsent then begin
          t.c_rejected_updates <- t.c_rejected_updates + 1;
          suspect t a fl "malformed_update";
          false
        end
        else if fl.a_nsent + nsent > fl.a_charged + (a.overclaim_slack_pkts * t.mtu) then begin
          t.c_rejected_updates <- t.c_rejected_updates + 1;
          suspect t a fl "overclaim";
          false
        end
        else true
  in
  if accept then begin
    fl.a_nsent <- fl.a_nsent + nsent;
    fl.last_update <- Engine.now t.engine;
    Macroflow.update fl.mf ~nsent ~nrecd ~loss ~rtt;
    if loss = Cm_types.Persistent then
      (* a persistent-congestion report presumes everything this flow had
         in flight was lost; square its own ledger with that.  Only the
         reporting flow is absolved — blanket absolution would launder
         another flow's phantom charges (e.g. a double-notifier's). *)
      fl.a_nsent <- Int.max fl.a_nsent fl.a_charged;
    check_rate_callbacks t fl.fl_ix
  end

let notify t fid ~nbytes =
  let fl = get_flow t fid in
  t.c_notifies <- t.c_notifies + 1;
  if nbytes = 0 then t.c_declined <- t.c_declined + 1;
  fl.a_notified <- fl.a_notified + nbytes;
  let charge =
    match t.auditor with
    | Some a when nbytes > 0 ->
        (* a client may transmit somewhat ahead of its grants (buffered
           sends), but sustained ungranted transmission is window theft:
           cap the charge at the granted allowance so the audited
           conservation invariant survives a blasting client, and score
           the excess instead of charging it *)
        let allowance = fl.a_granted + (a.grant_slack_pkts * t.mtu) in
        if fl.a_notified > allowance then begin
          t.c_rejected_notifies <- t.c_rejected_notifies + 1;
          suspect t a fl "ungranted_tx";
          Int.max 0 (nbytes - (fl.a_notified - allowance))
        end
        else nbytes
    | _ -> nbytes
  in
  fl.a_charged <- fl.a_charged + charge;
  Macroflow.notify fl.mf ~m:fl.fl_mem ~nbytes:charge ()

let query t fid =
  let fl = get_flow t fid in
  flow_status fl

let bulk_request t fids = List.iter (request t) fids

let bulk_update t entries =
  List.iter (fun (fid, nsent, nrecd, loss, rtt) -> update t fid ~nsent ~nrecd ~loss ?rtt ())
    entries

let macroflow_id t fid = Macroflow.id (get_flow t fid).mf

let split t fid =
  let fl = get_flow t fid in
  let mf = new_macroflow t in
  move_flow t fl mf

let merge t fid ~into =
  let fl = get_flow t fid in
  let target = get_flow t into in
  move_flow t fl target.mf

let set_weight t fid w =
  let fl = get_flow t fid in
  Macroflow.set_weight fl.mf fl.fl_mem w

let lookup t key = Addr.Flow_table.find_opt t.flows_by_key key
let flow_key t fid = (get_flow t fid).key
let suspicion t fid = (get_flow t fid).suspicion
let is_quarantined t fid = (get_flow t fid).quarantined

let flows t =
  Fid_dir.fold (fun fid _ acc -> fid :: acc) t.flows_by_id [] |> List.sort Int.compare

let live_flows t = Fid_dir.length t.flows_by_id
let flow_slot_capacity t = Fid_dir.capacity t.flows_by_id

let macroflow_of t fid = (get_flow t fid).mf

let attach t host =
  Host.add_tx_hook host (fun pkt ->
      match Addr.Flow_table.find t.flows_by_key pkt.Packet.flow with
      | fid ->
          let nbytes = Packet.payload_bytes pkt in
          if nbytes > 0 then begin
            Cpu.charge (Host.cpu host) (Host.costs host).Costs.cm_op;
            notify t fid ~nbytes
          end
      | exception Not_found -> ())

(* ---- telemetry --------------------------------------------------------- *)

let attach_telemetry t tel =
  t.telemetry <- Some tel;
  t.trace <- Telemetry.trace tel;
  Telemetry.gauge tel "cm.flows" (fun () -> float_of_int (Fid_dir.length t.flows_by_id));
  Telemetry.gauge tel "cm.macroflows" (fun () -> float_of_int (Int_table.length t.default_mf));
  Telemetry.gauge tel "cm.requests" (fun () -> float_of_int t.c_requests);
  Telemetry.gauge tel "cm.grants" (fun () -> float_of_int t.c_grants);
  Telemetry.gauge tel "cm.updates" (fun () -> float_of_int t.c_updates);
  Telemetry.gauge tel "cm.notifies" (fun () -> float_of_int t.c_notifies);
  Telemetry.gauge tel "cm.rejected_updates" (fun () -> float_of_int t.c_rejected_updates);
  Telemetry.gauge tel "cm.rejected_notifies" (fun () -> float_of_int t.c_rejected_notifies);
  Telemetry.gauge tel "cm.quarantines" (fun () -> float_of_int t.c_quarantines);
  Telemetry.gauge tel "cm.reaps" (fun () -> float_of_int t.c_reaps);
  Telemetry.gauge tel "cm.released_grant_bytes" (fun () ->
      float_of_int t.c_released_grant_bytes);
  Telemetry.gauge tel "cm.watchdog_fires" (fun () ->
      float_of_int
        (Id_table.fold (fun _ mf acc -> acc + Macroflow.watchdog_fires mf) t.all_mf 0));
  (* macroflows that already exist (e.g. the CM was attached mid-run) *)
  Id_table.iter (fun _ mf -> wire_macroflow_telemetry t mf) t.all_mf

let trace t = t.trace

let counters t =
  {
    opens = t.c_opens;
    closes = t.c_closes;
    requests = t.c_requests;
    grants = t.c_grants;
    updates = t.c_updates;
    notifies = t.c_notifies;
    declined_grants = t.c_declined;
    rejected_updates = t.c_rejected_updates;
    rejected_notifies = t.c_rejected_notifies;
    quarantines = t.c_quarantines;
    reaps = t.c_reaps;
  }

let released_grant_bytes t = t.c_released_grant_bytes
let teardown_probes t = t.c_teardown_probes

let watchdog_fires t =
  Id_table.fold (fun _ mf acc -> acc + Macroflow.watchdog_fires mf) t.all_mf 0

(* ---- audit view -------------------------------------------------------- *)

type audit_view = {
  av_mtu : int;
  av_flows : (Cm_types.flow_id * Addr.flow * Macroflow.t) list;
  av_key_entries : int;
  av_macroflows : Macroflow.t list; (* every macroflow ever created *)
  av_default_macroflows : Macroflow.t list;
  av_counters : counters;
}

let audit_view t =
  let by_fid (a, _, _) (b, _, _) = Int.compare a b in
  let by_id a b = Int.compare (Macroflow.id a) (Macroflow.id b) in
  {
    av_mtu = t.mtu;
    av_flows =
      Fid_dir.fold (fun fid fl acc -> (fid, fl.key, fl.mf) :: acc) t.flows_by_id []
      |> List.sort by_fid;
    av_key_entries = Addr.Flow_table.length t.flows_by_key;
    av_macroflows = Id_table.fold (fun _ mf acc -> mf :: acc) t.all_mf [] |> List.sort by_id;
    av_default_macroflows =
      Int_table.fold (fun _ mf acc -> mf :: acc) t.default_mf [] |> List.sort by_id;
    av_counters = counters t;
  }

(* ---- invariant auditor -------------------------------------------------- *)

(* Structural checks over a live CM, cheap enough to run periodically
   under fault storms.  Everything reads snapshots only, so a clean audit
   never perturbs the run. *)
module Audit = struct
  type report = {
    checked_flows : int;
    checked_macroflows : int;
    violations : string list;
  }

  let ok r = r.violations = []

  let run cm =
    let v = audit_view cm in
    let violations = ref [] in
    let fail fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
    let default_ids = List.map Macroflow.id v.av_default_macroflows in
    let members_of mfid =
      List.length (List.filter (fun (_, _, mf) -> Macroflow.id mf = mfid) v.av_flows)
    in
    (* macroflow accounting *)
    List.iter
      (fun mf ->
        let open Macroflow in
        let mfid = id mf in
        if outstanding mf < 0 then fail "mf%d: negative outstanding (%d)" mfid (outstanding mf);
        if granted mf < 0 then fail "mf%d: negative granted (%d)" mfid (granted mf);
        if members mf < 0 then fail "mf%d: negative member count (%d)" mfid (members mf);
        if pending_requests mf < 0 then
          fail "mf%d: negative pending requests (%d)" mfid (pending_requests mf);
        if grants_issued mf < grants_reclaimed mf + grants_released mf then
          fail "mf%d: more grants reclaimed+released (%d+%d) than ever issued (%d)" mfid
            (grants_reclaimed mf) (grants_released mf) (grants_issued mf);
        let attached = members_of mfid in
        if members mf <> attached then
          fail "mf%d: member count %d but %d open flows attached" mfid (members mf) attached;
        (* window conservation, recorded at grant-issue time (a snapshot
           check would false-positive whenever a loss halves cwnd while
           the pipe drains) *)
        if conservation_breaches mf > 0 then
          fail "mf%d: window conservation breached %d times at grant issue" mfid
            (conservation_breaches mf);
        (* the grant ledger re-derived from the age chain must agree with
           the running counter — catches leaks on *alive* macroflows,
           where the dead-with-granted-bytes check below never looks *)
        let skew = granted_ledger_skew mf in
        if skew <> 0 then
          fail "mf%d: grant ledger skewed by %d bytes (granted %d vs live reservations)" mfid
            skew (granted mf);
        if alive mf then begin
          (* a live empty non-default macroflow leaks its state *)
          if attached = 0 && not (List.mem mfid default_ids) then
            fail "mf%d: leaked (alive, empty, not a per-destination macroflow)" mfid
        end
        else begin
          if attached > 0 then fail "mf%d: dead but %d open flows still attached" mfid attached;
          if granted mf > 0 then fail "mf%d: dead with %d granted bytes" mfid (granted mf)
        end)
      v.av_macroflows;
    (* flow-table bijection *)
    List.iter
      (fun (fid, key, mf) ->
        (match lookup cm key with
        | Some fid' when fid' = fid -> ()
        | Some fid' -> fail "flow %d: key table resolves its 5-tuple to flow %d" fid fid'
        | None -> fail "flow %d: missing from the key table" fid);
        if not (Macroflow.alive mf) then
          fail "flow %d: attached to dead macroflow %d" fid (Macroflow.id mf))
      v.av_flows;
    if v.av_key_entries <> List.length v.av_flows then
      fail "flow tables disagree: %d key entries, %d open flows" v.av_key_entries
        (List.length v.av_flows);
    (* counter sanity *)
    let c = v.av_counters in
    if c.closes + c.reaps > c.opens then
      fail "counters: %d closes + %d reaps exceed %d opens" c.closes c.reaps c.opens;
    List.iter
      (fun (name, n) -> if n < 0 then fail "counters: %s negative (%d)" name n)
      [
        ("opens", c.opens);
        ("closes", c.closes);
        ("requests", c.requests);
        ("grants", c.grants);
        ("updates", c.updates);
        ("notifies", c.notifies);
        ("declined_grants", c.declined_grants);
        ("rejected_updates", c.rejected_updates);
        ("rejected_notifies", c.rejected_notifies);
        ("quarantines", c.quarantines);
        ("reaps", c.reaps);
      ];
    {
      checked_flows = List.length v.av_flows;
      checked_macroflows = List.length v.av_macroflows;
      violations = List.rev !violations;
    }

  let pp fmt r =
    if ok r then
      Format.fprintf fmt "audit ok (%d flows, %d macroflows)" r.checked_flows
        r.checked_macroflows
    else begin
      Format.fprintf fmt "audit FAILED (%d flows, %d macroflows):" r.checked_flows
        r.checked_macroflows;
      List.iter (fun v -> Format.fprintf fmt "@.  - %s" v) r.violations
    end
end

let pp_summary fmt t =
  let c = counters t in
  Format.fprintf fmt "CM: %d open flows, %d macroflows@." (Fid_dir.length t.flows_by_id)
    (Int_table.length t.default_mf);
  Format.fprintf fmt "  api: %d opens, %d requests, %d grants (%d declined), %d updates, %d notifies@."
    c.opens c.requests c.grants c.declined_grants c.updates c.notifies;
  if c.rejected_updates + c.rejected_notifies + c.quarantines + c.reaps > 0 then
    Format.fprintf fmt "  defense: %d rejected updates, %d rejected notifies, %d quarantines, %d reaps@."
      c.rejected_updates c.rejected_notifies c.quarantines c.reaps;
  Fid_dir.iter
    (fun _ fl ->
      let mf = fl.mf in
      Format.fprintf fmt "  flow %d (%a): macroflow %d cwnd=%d out=%d srtt=%s@." fl.fid
        Addr.pp_flow fl.key (Macroflow.id mf) (Macroflow.cwnd mf) (Macroflow.outstanding mf)
        (match Macroflow.srtt mf with
        | Some s -> Format.asprintf "%a" Time.pp s
        | None -> "-"))
    t.flows_by_id
