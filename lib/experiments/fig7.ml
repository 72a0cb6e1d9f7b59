open Cm_util
open Eventsim
open Cm_spec

type row = { request : int; linux_ms : float; cm_ms : float }

(* wide-area path: ~10 Mbps available, 75 ms RTT like the MIT-Utah vBNS
   path of the paper; client a fetches from server b *)
let spec_of ~count ~file_bytes =
  Spec.(
    pipe ~bw:10e6 ~lat:(Time.us 37_500) ()
    @ flows ~name:"fetches" ~src:[ "a" ] ~dst:"b" ~port:80
        ~app:(web_fetch ~object_bytes:file_bytes ~count ~gap:(Time.ms 500))
        ())

let spec = spec_of ~count:9 ~file_bytes:(128 * 1024)

let run_side params ~use_cm ~count ~file_bytes =
  Exp_common.with_system params @@ fun sys ->
  let engine = Exp_common.engine sys in
  let rng = Rng.create ~seed:params.Exp_common.seed in
  (* the SERVER is the data sender: the CM (when enabled) lives on host b *)
  let spec = spec_of ~count ~file_bytes in
  let net = Build.pipe ~rng engine (if use_cm then Spec.par [ spec; Spec.cm [ "b" ] ] else spec) in
  let cm = if use_cm then Some (Build.cm net.Build.net "b") else None in
  Exp_common.watch sys ~links:[ ("ba", net.Build.ba); ("ab", net.Build.ab) ] ?cm ();
  let running = Launch.run net.Build.net () in
  Engine.run_for engine (Time.sec (float_of_int count *. 2.) );
  match (Launch.find running "fetches").Launch.outcomes.(0) with
  | Launch.Fetched { fetches; _ } ->
      List.map (fun r -> Time.to_float_ms r.Cm_apps.Web.duration) fetches
  | _ -> failwith "fig7: fetches did not complete"

let run ?(count = 9) ?(file_bytes = 128 * 1024) params =
  let linux = run_side params ~use_cm:false ~count ~file_bytes in
  let cm = run_side params ~use_cm:true ~count ~file_bytes in
  List.mapi (fun i (l, c) -> { request = i + 1; linux_ms = l; cm_ms = c })
    (List.combine linux cm)

let print rows =
  Exp_common.print_header
    "Figure 7: sequential 128KB fetches, 500 ms apart (completion time, ms)";
  Exp_common.print_row (Printf.sprintf "%-10s %14s %14s" "request#" "TCP/Linux" "TCP/CM");
  List.iter
    (fun r ->
      Exp_common.print_row (Printf.sprintf "%-10d %14.1f %14.1f" r.request r.linux_ms r.cm_ms))
    rows
