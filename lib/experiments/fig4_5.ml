open Cm_util
open Netsim

type row = {
  buffers : int;
  linux_kbps : float;
  cm_kbps : float;
  linux_cpu_pct : float;
  cm_cpu_pct : float;
}

let buffer_bytes = 8192
let spec_of buffers =
  Cm_spec.Spec.(
    par
      [
        pipe ~queue:1000 ~bw:100e6 ~lat:(Time.us 250) ();
        cm [ "a" ];
        flows ~name:"ttcp" ~src:[ "a" ] ~dst:"b" ~port:80
          ~app:(bulk ~bytes:(buffers * buffer_bytes))
          ();
      ])

let spec = spec_of 1_000

let run params =
  let points =
    if params.Exp_common.full then [ 1_000; 10_000; 100_000; 1_000_000 ]
    else [ 1_000; 10_000; 100_000 ]
  in
  let one buffers =
    let measure use_cm =
      Exp_common.measured_bulk params ~use_cm ~spec:(spec_of buffers) ~costs:Costs.pentium3 ()
    in
    let native_bps, native_util = measure false in
    let cm_bps, cm_util = measure true in
    {
      buffers;
      linux_kbps = Exp_common.kbps native_bps;
      cm_kbps = Exp_common.kbps cm_bps;
      linux_cpu_pct = native_util *. 100.;
      cm_cpu_pct = cm_util *. 100.;
    }
  in
  List.map one points

let print rows =
  Exp_common.print_header "Figure 4: 100 Mbps TCP throughput (KBytes/s) vs buffers transmitted";
  Exp_common.print_row (Printf.sprintf "%-10s %14s %14s %10s" "buffers" "TCP/Linux" "TCP/CM" "delta%");
  List.iter
    (fun r ->
      let delta = (r.linux_kbps -. r.cm_kbps) /. r.linux_kbps *. 100. in
      Exp_common.print_row
        (Printf.sprintf "%-10d %14.0f %14.0f %10.2f" r.buffers r.linux_kbps r.cm_kbps delta))
    rows;
  Exp_common.print_header "Figure 5: sender CPU utilization (%) vs buffers transmitted";
  Exp_common.print_row
    (Printf.sprintf "%-10s %14s %14s %10s" "buffers" "TCP/Linux" "TCP/CM" "delta");
  List.iter
    (fun r ->
      Exp_common.print_row
        (Printf.sprintf "%-10d %14.2f %14.2f %10.2f" r.buffers r.linux_cpu_pct r.cm_cpu_pct
           (r.cm_cpu_pct -. r.linux_cpu_pct)))
    rows
