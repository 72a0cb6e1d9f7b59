module Analyze = Cm_report.Analyze

let capture ~seed subruns =
  List.concat_map
    (fun (sub, run) ->
      (* packet ids are process-global and appear in the trace *)
      Netsim.Packet.reset_ids ();
      let req = Exp_common.request_telemetry () in
      run { Exp_common.default_params with seed; telemetry = Some req };
      match List.rev req.captured with
      | [] -> failwith (Printf.sprintf "capture: sub-run %S watched no system" sub)
      | [ tel ] -> [ (sub, tel) ]
      | tels -> List.mapi (fun i tel -> (Printf.sprintf "%s.%d" sub i, tel)) tels)
    subruns

type artifact = { a_name : string; a_path : string; a_bytes : int }

let write ~out_dir files =
  Telemetry.Recorder.mkdir_p out_dir;
  List.map
    (fun (name, contents) ->
      let path = Filename.concat out_dir name in
      let oc = open_out_bin path in
      output_string oc contents;
      close_out oc;
      { a_name = name; a_path = path; a_bytes = String.length contents })
    files

let trace ~out_dir ~seed (f : Family.t) =
  capture ~seed f.subruns
  |> List.concat_map (fun (name, tel) ->
         [
           (name ^ ".trace.jsonl", Telemetry.export_jsonl tel);
           (name ^ ".chrome.json", Telemetry.export_chrome tel);
           (name ^ ".series.csv", Telemetry.export_csv tel);
           (name ^ ".metrics.json", Telemetry.export_metrics_json tel);
         ])
  |> write ~out_dir

let report ~out_dir ~seed (f : Family.t) =
  let reports =
    List.map
      (fun (name, tel) -> (name, Analyze.analyze (Analyze.of_telemetry tel)))
      (capture ~seed f.subruns)
  in
  let json =
    match reports with
    | [ (_, r) ] -> Analyze.to_json r
    | _ -> Cm_util.Json.Obj (List.map (fun (name, r) -> (name, Analyze.to_json r)) reports)
  in
  let json = Cm_util.Json.to_string json ^ "\n" in
  let md = Buffer.create 1024 in
  Buffer.add_string md (Printf.sprintf "# Run report: %s\n" f.name);
  List.iter
    (fun (name, r) ->
      if List.length reports > 1 then Buffer.add_string md (Printf.sprintf "\n## %s\n" name);
      Buffer.add_string md (Analyze.to_markdown r))
    reports;
  (* the machine channel also goes to stdout, so a twice-run diff needs no files *)
  print_string json;
  write ~out_dir [ (f.name ^ ".report.json", json); (f.name ^ ".report.md", Buffer.contents md) ]

let print_artifacts oc =
  List.iter (fun a -> Printf.fprintf oc "  %-28s %8d bytes  %s\n" a.a_name a.a_bytes a.a_path)
