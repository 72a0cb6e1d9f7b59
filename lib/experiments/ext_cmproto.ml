open Cm_util
open Eventsim
open Netsim
open Cm_spec

type row = {
  design : string;
  us_per_packet : float;
  ops : (string * float) list;
}

let size = 168
let window = 32

let ops_of meter n =
  List.filter_map
    (fun kind ->
      let c = Libcm.Ops.count meter kind in
      if c = 0 then None
      else Some (Libcm.Ops.to_string kind, float_of_int c /. float_of_int n))
    Libcm.Ops.all

let n = 20_000

(* The CM-protocol sender: same windowed workload as Fig. 6's Buffered
   variant (n packets, at most [window] queued, topped up every 200 µs),
   but acknowledgment happens kernel-to-kernel. *)
let spec =
  Spec.(
    Fig6.spec
    @ cm ~mtu:(size + Cmproto.header_bytes) [ "a" ]
    @ flows ~name:"session" ~src:[ "a" ] ~dst:"b" ~port:7000
        ~app:
          (cmproto_session ~packet_bytes:size ~window ~ack_every:1 ~pump:(Time.us 200) ~packets:n
             ())
        ())

let run_cmproto params =
  Exp_common.with_system params @@ fun sys ->
  let engine = Exp_common.engine sys in
  let rng = Rng.create ~seed:params.Exp_common.seed in
  let net = Build.pipe ~costs:Costs.pentium3 ~rng engine spec in
  let costs = Host.costs net.Build.a in
  let cm = Build.cm net.Build.net "a" in
  Exp_common.watch sys ~links:[ ("ab", net.Build.ab); ("ba", net.Build.ba) ] ~cm ();
  let lib = Build.libcm net.Build.net "a" in
  let meter = Libcm.meter lib in
  (* kernel costs of the protocol itself, charged before the agents run:
     the sender pays one interrupt + CM work per feedback packet *)
  Host.add_rx_filter net.Build.a (fun pkt ->
      (match pkt.Packet.payload with
      | Cmproto.Feedback _ ->
          Cpu.charge (Host.cpu net.Build.a) (costs.Costs.intr_rx + costs.Costs.cm_op)
      | _ -> ());
      Some pkt);
  let running = Launch.run net.Build.net () in
  let session = (Launch.session (Launch.find running "session") 0).Launch.session in
  (* the application's only boundary crossing: the send syscall *)
  Host.add_tx_hook net.Build.a (fun pkt ->
      match pkt.Packet.payload with
      | Cmproto.Data _ -> Libcm.Ops.charge meter ~bytes:size Libcm.Ops.Send
      | _ -> ());
  let t0 = Engine.now engine in
  let t_end = ref None in
  let guard = ref 0 in
  while !t_end = None && !guard < 4_000 do
    incr guard;
    Engine.run_for engine (Time.ms 10);
    if Cmproto.Session.packets_sent session >= n && Cmproto.Session.unresolved_packets session = 0
    then t_end := Some (Engine.now engine)
  done;
  let finish = match !t_end with Some t -> t | None -> Engine.now engine in
  (Time.to_float_us (Time.diff finish t0) /. float_of_int n, meter)

let run params =
  let buffered_us, buffered_meter =
    Fig6.measure_variant params Fig6.Buffered ~size ~n
  in
  let cmproto_us, cmproto_meter = run_cmproto params in
  [
    {
      design = "Buffered (application feedback)";
      us_per_packet = buffered_us;
      ops = ops_of buffered_meter n;
    };
    {
      design = "CM protocol (kernel feedback)";
      us_per_packet = cmproto_us;
      ops = ops_of cmproto_meter n;
    };
  ]

let print rows =
  Exp_common.print_header
    "Extension: CM protocol (kernel-to-kernel feedback) vs application feedback, 168 B packets";
  List.iter
    (fun r ->
      Exp_common.print_row (Printf.sprintf "%-36s %8.1f us/packet" r.design r.us_per_packet);
      List.iter
        (fun (name, per) -> Exp_common.print_row (Printf.sprintf "    %-16s %6.2f /pkt" name per))
        r.ops)
    rows;
  match rows with
  | [ app; proto ] ->
      Exp_common.print_row
        (Printf.sprintf
           "per-packet saving: %.1f us (%.0f%%); the sending app's only crossing is send()"
           (app.us_per_packet -. proto.us_per_packet)
           ((app.us_per_packet -. proto.us_per_packet) /. app.us_per_packet *. 100.))
  | _ -> ()
