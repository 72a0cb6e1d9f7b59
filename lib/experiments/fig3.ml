open Cm_util

type row = { loss_pct : float; linux_kbps : float; cm_kbps : float }

let loss_points = [ 0.0; 0.25; 0.5; 1.0; 1.5; 2.0; 2.5; 3.0; 3.5; 4.0; 4.5; 5.0 ]

let spec_of loss_pct =
  Cm_spec.Spec.(
    par
      [
        pipe ~loss:(loss_pct /. 100.) ~bw:10e6 ~lat:(Time.ms 30) ();
        cm [ "a" ];
        flows ~name:"ttcp" ~src:[ "a" ] ~dst:"b" ~port:80 ~app:(bulk ~bytes:(1 lsl 34)) ();
      ])

let run params =
  let one loss_pct =
    let measure use_cm =
      fst
        (Exp_common.measured_bulk params ~use_cm ~spec:(spec_of loss_pct)
           ~duration:(Time.sec 30.) ())
    in
    {
      loss_pct;
      linux_kbps = Exp_common.kbps (measure false);
      cm_kbps = Exp_common.kbps (measure true);
    }
  in
  List.map one loss_points

let print rows =
  Exp_common.print_header
    "Figure 3: throughput (KBytes/s) vs loss rate, 10 Mbps / 60 ms RTT";
  Exp_common.print_row (Printf.sprintf "%-10s %14s %14s" "loss(%)" "TCP/Linux" "TCP/CM");
  List.iter
    (fun r ->
      Exp_common.print_row (Printf.sprintf "%-10.2f %14.1f %14.1f" r.loss_pct r.linux_kbps r.cm_kbps))
    rows
