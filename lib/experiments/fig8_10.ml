open Cm_util
open Eventsim
open Netsim
open Cm_spec

type sample = { t_s : float; tx_kbps : float; cm_kbps : float }
type series = { label : string; samples : sample list }

(* cumulative layer rates: 250/500/1000/2000 KBytes/s, like the paper's
   KBps axes *)
let layers = [| 2e6; 4e6; 8e6; 16e6 |]

(* available-bandwidth schedule for the emulated wide-area path *)
let schedule duration =
  let base =
    [
      (Time.sec 0., 18e6);
      (Time.sec 5., 6e6);
      (Time.sec 10., 3e6);
      (Time.sec 15., 10e6);
      (Time.sec 20., 18e6);
    ]
  in
  (* repeat the pattern for longer runs *)
  let rec extend acc offset =
    if offset >= duration then List.rev acc
    else begin
      let shifted = List.map (fun (t, bw) -> (Time.add t offset, bw)) base in
      extend (List.rev_append shifted acc) (Time.add offset (Time.sec 25.))
    end
  in
  extend [] 0

let spec =
  Spec.(par [ pipe ~queue:50 ~rev_queue:200 ~bw:18e6 ~lat:(Time.ms 20) (); cm ~mtu:1000 [ "a" ] ])

let run_one params ~label ~mode ~duration ~batch =
  Exp_common.with_system params @@ fun sys ->
  let engine = Exp_common.engine sys in
  let rng = Rng.create ~seed:params.Exp_common.seed in
  let net = Build.pipe ~rng engine spec in
  Cm_dynamics.Scenario.compile engine ~rng
    ~links:[ ("wan", net.Build.ab) ]
    (Cm_dynamics.Scenario.of_bandwidth_schedule ~name:"fig8-10 vBNS path" ~target:"wan"
       (schedule duration));
  Exp_common.watch sys
    ~links:[ ("wan", net.Build.ab); ("rev", net.Build.ba) ]
    ~cm:(Build.cm net.Build.net "a") ();
  let lib = Build.libcm net.Build.net "a" in
  let _receiver = Udp.Cc_socket.run_echo_receiver net.Build.b ~port:5004 ?batch () in
  let feedback_timeout =
    (* with batched feedback the sender must tolerate the batching delay
       before declaring persistent loss *)
    match batch with Some (_, d) -> Some (2 * d + Time.ms 500) | None -> None
  in
  let source =
    Cm_apps.Layered.create lib ~host:net.Build.a
      ~dst:(Addr.endpoint ~host:1 ~port:5004)
      ~layers ~mode ~packet_bytes:1000 ?feedback_timeout ()
  in
  Cm_apps.Layered.start source;
  Engine.run_for engine duration;
  Cm_apps.Layered.stop source;
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

let run_fig8 params =
  run_one params ~label:"Figure 8: ALF (request/callback) layered source, 25 s"
    ~mode:Cm_apps.Layered.Alf ~duration:(Time.sec 25.) ~batch:None

let run_fig9 params =
  run_one params ~label:"Figure 9: rate-callback layered source, 20 s"
    ~mode:(Cm_apps.Layered.Rate_callback { down = 0.9; up = 1.1 })
    ~duration:(Time.sec 20.) ~batch:None

let run_fig10 params =
  run_one params
    ~label:"Figure 10: rate callback with delayed feedback min(500 acks, 2 s), 70 s"
    ~mode:(Cm_apps.Layered.Rate_callback { down = 0.9; up = 1.1 })
    ~duration:(Time.sec 70.)
    ~batch:(Some (500, Time.sec 2.))

let print { label; samples } =
  Exp_common.print_header label;
  Exp_common.print_row (Printf.sprintf "%-8s %18s %18s" "t(s)" "tx rate (KB/s)" "CM rate (KB/s)");
  List.iter
    (fun s ->
      Exp_common.print_row (Printf.sprintf "%-8.0f %18.0f %18.0f" s.t_s s.tx_kbps s.cm_kbps))
    samples
