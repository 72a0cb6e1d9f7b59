open Cm_util
open Eventsim
open Cm_spec

type row = {
  setup : string;
  pair_bytes : int;
  reference_bytes : int;
  pair_to_reference : float;
}

(* hosts 1, 2 and 3 all live behind the same 6 Mbit/s trunk from the
   sender's point of view (the sender is the clients' "server"); two
   backlogged CC-UDP flows go to two different destination hosts, first
   filled at 20 ms and every 20 ms after, and the reference, a stock TCP
   bulk transfer, to the third *)
let spec =
  let client i = Spec.client_name ~server:0 ~index:i () in
  let to_client i =
    Spec.flows ~name:(client i) ~src:[ "server" ] ~dst:(client i) ~port:7001
      ~app:(Spec.datagram ~refill:(Time.ms 20))
      ~start:(Time.ms 20) ()
  in
  Spec.(
    node "server"
    @ cm ~mtu:1000 [ "server" ]
    @ clients ~n:3 ~per:[ "server" ] ~bw:1e8 ~lat:(Time.ms 1) ~trunk_bw:6e6
        ~trunk_lat:(Time.ms 20) ~trunk_queue:50 ()
    @ to_client 0 @ to_client 1
    @ flows ~name:"reference" ~src:[ "server" ] ~dst:(client 2) ~port:80
        ~app:(bulk ~bytes:(1 lsl 28))
        ())

let run_side params ~merged =
  Exp_common.with_system params @@ fun sys ->
  let engine = Exp_common.engine sys in
  let rng = Rng.create ~seed:params.Exp_common.seed in
  let net = Build.instantiate ~rng engine (Check.elaborate_exn spec) in
  let cm = Build.cm net "server" in
  Exp_common.watch sys
    ~links:
      [ ("from_server", Build.link net "server->cr0"); ("to_server", Build.link net "cr0->server") ]
    ~cm ();
  (* the CC-UDP flows run over the server's CM, the reference TCP does not *)
  let running = Launch.run net ~driver_for:(fun _ -> None) () in
  let socket i =
    (Launch.datagrams (Launch.find running (Spec.client_name ~server:0 ~index:i ())) 0)
      .Launch.socket
  in
  let sock_a = socket 0 and sock_b = socket 1 in
  (* by default these are separate per-destination macroflows; with
     bottleneck knowledge supplied, merge them into one *)
  if merged then Cm.merge cm (Udp.Cc_socket.flow sock_a) ~into:(Udp.Cc_socket.flow sock_b);
  Engine.run_for engine (Time.sec 20.);
  let pair = Udp.Cc_socket.bytes_sent sock_a + Udp.Cc_socket.bytes_sent sock_b in
  let reference = Launch.transfer (Launch.find running "reference") 0 in
  let reference_bytes = reference.Cm_apps.Bulk.delivered in
  {
    setup = (if merged then "merged macroflow (bottleneck known)" else "separate per-destination");
    pair_bytes = pair;
    reference_bytes;
    pair_to_reference = float_of_int pair /. float_of_int (Stdlib.max 1 reference_bytes);
  }

let run params = [ run_side params ~merged:false; run_side params ~merged:true ]

let print rows =
  Exp_common.print_header
    "Extension (sec. 5): merging macroflows across destinations behind one bottleneck";
  Exp_common.print_row
    (Printf.sprintf "%-36s %12s %14s %10s" "setup" "pair bytes" "reference TCP" "pair/ref");
  List.iter
    (fun r ->
      Exp_common.print_row
        (Printf.sprintf "%-36s %12d %14d %10.2f" r.setup r.pair_bytes r.reference_bytes
           r.pair_to_reference))
    rows;
  Exp_common.print_row
    "(two independent macroflows probe the shared bottleneck like two TCPs; merged,";
  Exp_common.print_row " the pair takes roughly one TCP's share)"
