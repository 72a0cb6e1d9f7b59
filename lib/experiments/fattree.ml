open Cm_util
open Eventsim
open Netsim
module Spec = Cm_spec.Spec
module Check = Cm_spec.Check
module Build = Cm_spec.Build
module Launch = Cm_spec.Launch

(* k=4 datacenter fat-tree with a classic incast: every other host sends
   a 128 KiB block to h0 at the same instant, then a cross-pod shuffle
   wave follows.  Authored entirely in the spec DSL — the family exists
   to exercise fan-in through the fabric and the edge link's queue. *)

let k = 4
let block = 128 * 1024
let incast_start = Time.ms 100
let shuffle_start = Time.sec 2.
let duration = Time.sec 12.

let spec =
  let hosts = Spec.fat_tree_hosts ~k in
  let senders = List.tl hosts in
  (* pod 1's hosts each push a block to a distinct pod-3 host *)
  let pod1 = List.filteri (fun i _ -> i >= 4 && i < 8) hosts in
  Spec.(
    par
      [
        fat_tree ~k ~host_bw:100e6 ~fabric_bw:100e6 ~lat:(Time.us 10) ~queue:64 ();
        cm senders;
        flows ~name:"incast" ~src:senders ~dst:"h0" ~port:5000 ~app:(bulk ~bytes:block)
          ~start:incast_start ();
        flows ~name:"shuffle" ~src:pod1 ~dst:"h12" ~port:6000 ~app:(bulk ~bytes:(4 * block))
          ~start:shuffle_start ~stagger:(Time.ms 10) ();
      ])

type group_result = {
  gr_name : string;
  gr_flows : int;
  gr_done : int;
  gr_first_done : Time.t;
  gr_last_done : Time.t;
  gr_mean_s : float;
  gr_goodput_bps : float;  (** Aggregate: total bytes / (last done − group start). *)
}

type result = { r_groups : group_result list; r_edge : Link.stats }
(** [r_edge]: the incast bottleneck, the edge-router → h0 access link. *)

let run params =
  Exp_common.with_system params @@ fun sys ->
  let engine = Exp_common.engine sys in
  let rng = Rng.create ~seed:params.Exp_common.seed in
  let ir = Check.elaborate_exn spec in
  let net = Build.instantiate ~rng engine ir in
  Exp_common.watch sys ~links:[ ("edge-h0", Build.link net "p0e0->h0") ] ();
  let running = Launch.run net () in
  Engine.run_for engine duration;
  let group_result (r : Launch.running) =
    let start = r.Launch.rg.Check.g_start in
    let dones =
      List.init (Array.length r.Launch.outcomes) (Launch.transfer r)
      |> List.filter_map (fun (t : Cm_apps.Bulk.t) ->
             Option.map (fun at -> (at, t.Cm_apps.Bulk.delivered)) t.Cm_apps.Bulk.finished_at)
    in
    let durations = List.map (fun (at, _) -> Time.to_float_s (Time.diff at start)) dones in
    let bytes = List.fold_left (fun acc (_, delivered) -> acc + delivered) 0 dones in
    let last = List.fold_left (fun acc (at, _) -> Time.max acc at) start dones in
    let first = List.fold_left (fun acc (at, _) -> Time.min acc at) last dones in
    {
      gr_name = r.Launch.rg.Check.g_name;
      gr_flows = Array.length r.Launch.outcomes;
      gr_done = Launch.done_count r;
      gr_first_done = first;
      gr_last_done = last;
      gr_mean_s =
        (match durations with
        | [] -> 0.
        | ds -> List.fold_left ( +. ) 0. ds /. float_of_int (List.length ds));
      gr_goodput_bps =
        (if last > start then float_of_int (bytes * 8) /. Time.to_float_s (Time.diff last start)
         else 0.);
    }
  in
  { r_groups = List.map group_result running; r_edge = Link.stats (Build.link net "p0e0->h0") }

let to_json params r =
  let open Exp_common.Json in
  Obj
    [
      ("seed", Int params.Exp_common.seed);
      ("k", Int k);
      ("block_bytes", Int block);
      ( "groups",
        List
          (List.map
             (fun g ->
               Obj
                 [
                   ("name", Str g.gr_name);
                   ("flows", Int g.gr_flows);
                   ("done", Int g.gr_done);
                   ("first_done_s", Float (Time.to_float_s g.gr_first_done));
                   ("last_done_s", Float (Time.to_float_s g.gr_last_done));
                   ("mean_completion_s", Float g.gr_mean_s);
                   ("goodput_kbps", Float (Exp_common.kbps g.gr_goodput_bps));
                 ])
             r.r_groups) );
      ( "edge_link",
        Obj
          [
            ("delivered_pkts", Int r.r_edge.Link.delivered_pkts);
            ("queue_drops", Int r.r_edge.Link.queue_drops);
            ("ecn_marks", Int r.r_edge.Link.ecn_marks);
          ] );
    ]

let print params r =
  Exp_common.print_header "Fat-tree (k=4) incast + cross-pod shuffle, spec-DSL authored (JSON)";
  Exp_common.print_row (Exp_common.Json.to_string (to_json params r))
