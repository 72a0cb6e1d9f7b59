open Cm_util
open Eventsim
open Netsim
open Cm_spec

type result = { linux_setup_us : float; cm_setup_us : float; cm_open_close_ns : float }

let spec = Spec.pipe ~bw:100e6 ~lat:(Time.us 100) ()
let cm_spec = Spec.par [ spec; Spec.cm [ "a" ] ]

let setup_time params ~use_cm =
  Exp_common.with_system params @@ fun sys ->
  let engine = Exp_common.engine sys in
  let rng = Rng.create ~seed:params.Exp_common.seed in
  let net =
    Build.pipe ~costs:Costs.pentium3 ~rng engine (if use_cm then cm_spec else spec)
  in
  let cm = if use_cm then Some (Build.cm net.Build.net "a") else None in
  Exp_common.watch sys ~links:[ ("ab", net.Build.ab); ("ba", net.Build.ba) ] ?cm ();
  let _l = Tcp.Conn.listen net.Build.b ~port:80 ~on_accept:(fun _ -> ()) () in
  let established_at = ref None in
  let t0 = Engine.now engine in
  let conn =
    Tcp.Conn.connect net.Build.a ~dst:(Addr.endpoint ~host:1 ~port:80)
      ?driver:(Build.driver net.Build.net net.Build.a) ()
  in
  Tcp.Conn.on_established conn (fun () -> established_at := Some (Engine.now engine));
  Engine.run_for engine (Time.ms 100);
  match !established_at with
  | Some t -> Time.to_float_us (Time.diff t t0)
  | None -> failwith "micro: connection did not establish"

let open_close_cost () =
  (* real wall-clock cost of the CM's own bookkeeping *)
  let cm = Build.cm (Build.pipe (Engine.create ()) cm_spec).Build.net "a" in
  let n = 10_000 in
  let t0 = Unix.gettimeofday () in
  for i = 0 to n - 1 do
    let key =
      Addr.flow
        ~src:(Addr.endpoint ~host:0 ~port:(1000 + (i mod 30_000)))
        ~dst:(Addr.endpoint ~host:1 ~port:80)
        ~proto:Addr.Tcp ()
    in
    let fid = Cm.open_flow cm key in
    Cm.close_flow cm fid
  done;
  (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int n

let run params =
  {
    linux_setup_us = setup_time params ~use_cm:false;
    cm_setup_us = setup_time params ~use_cm:true;
    cm_open_close_ns = open_close_cost ();
  }

let print r =
  Exp_common.print_header "Microbenchmark (§4.1): connection establishment";
  Exp_common.print_row
    (Printf.sprintf "TCP/Linux connect -> established: %10.1f us" r.linux_setup_us);
  Exp_common.print_row
    (Printf.sprintf "TCP/CM    connect -> established: %10.1f us" r.cm_setup_us);
  Exp_common.print_row
    (Printf.sprintf "cm_open + cm_close bookkeeping:   %10.0f ns (host wall clock)"
       r.cm_open_close_ns)
