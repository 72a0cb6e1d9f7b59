open Cm_util
open Eventsim
open Cm_spec
module Scenario = Cm_dynamics.Scenario

type sample = { t_s : float; tx_kbps : float; cm_kbps : float }
type series = { label : string; samples : sample list }

(* cumulative layer rates: 250/500/1000/2000 KBytes/s, like the paper's
   KBps axes *)
let layers = [| 2e6; 4e6; 8e6; 16e6 |]

(* the emulated wide-area path's available bandwidth, as its forward
   link's fault steps: a 25 s pattern, repeated for longer runs *)
let schedule duration =
  let period = Time.sec 25. in
  List.concat_map
    (fun k ->
      List.map
        (fun (t, bw) -> (Time.add (Time.sec t) (k * period), Scenario.Set_bandwidth bw))
        [ (0., 18e6); (5., 6e6); (10., 3e6); (15., 10e6); (20., 18e6) ])
    (List.init ((duration + period - 1) / period) Fun.id)

type figure = Fig8 | Fig9 | Fig10

let rate_callback = Cm_apps.Layered.Rate_callback { down = 0.9; up = 1.1 }

(* label, duration, source mode and receiver feedback batching *)
let setup = function
  | Fig8 ->
      ("Figure 8: ALF (request/callback) layered source, 25 s", 25., Cm_apps.Layered.Alf, None)
  | Fig9 -> ("Figure 9: rate-callback layered source, 20 s", 20., rate_callback, None)
  | Fig10 ->
      ( "Figure 10: rate callback with delayed feedback min(500 acks, 2 s), 70 s",
        70.,
        rate_callback,
        Some (500, Time.sec 2.) )

let spec fig =
  let _, duration, mode, batch = setup fig in
  Spec.(
    pipe ~queue:50 ~rev_queue:200 ~bw:18e6 ~lat:(Time.ms 20) ()
    @ cm ~mtu:1000 [ "a" ]
    @ faults ~target:"ab" (schedule (Time.sec duration))
    @ flows ~name:"stream" ~src:[ "a" ] ~dst:"b" ~port:5004
        ~app:(layered ~packet_bytes:1000 ~mode ?batch ~layers ())
        ())

let run params fig =
  Exp_common.with_system params @@ fun sys ->
  let engine = Exp_common.engine sys in
  let rng = Rng.create ~seed:params.Exp_common.seed in
  let ir = Check.elaborate_exn (spec fig) in
  let net = Build.instantiate ~rng engine ir in
  Scenario.compile engine ~rng ~links:(Build.links_alist net)
    (Build.scenario ~name:"fig8-10 vBNS path" ir);
  Exp_common.watch sys
    ~links:[ ("wan", Build.link net "ab"); ("rev", Build.link net "ba") ]
    ~cm:(Build.cm net "a") ();
  let stream = Launch.find (Launch.run net ()) "stream" in
  let label, duration, _, _ = setup fig in
  let duration = Time.sec duration in
  Engine.run_for engine duration;
  Launch.stop stream;
  let source = Launch.stream stream 0 in
  let bin = Time.sec 1. in
  let tx = Timeline.rate_series (Cm_apps.Layered.tx_timeline source) ~bin ~until:duration in
  let cmr =
    Timeline.sampled_series (Cm_apps.Layered.rate_timeline source) ~bin ~until:duration
  in
  let samples =
    List.map2
      (fun (t, bytes_per_s) (_, rate_bps) ->
        {
          t_s = Time.to_float_s t;
          tx_kbps = bytes_per_s /. 1000.;
          cm_kbps = (if Float.is_nan rate_bps then 0. else Exp_common.kbps rate_bps);
        })
      tx cmr
  in
  { label; samples }

let print { label; samples } =
  Exp_common.print_header label;
  Exp_common.print_row (Printf.sprintf "%-8s %18s %18s" "t(s)" "tx rate (KB/s)" "CM rate (KB/s)");
  List.iter
    (fun s ->
      Exp_common.print_row (Printf.sprintf "%-8.0f %18.0f %18.0f" s.t_s s.tx_kbps s.cm_kbps))
    samples
