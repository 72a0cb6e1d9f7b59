open Cm_util

let setup engine ?(level = Logs.Warning) ?(ppf = Format.err_formatter) () =
  let report src lvl ~over k msgf =
    let k _ =
      over ();
      k ()
    in
    msgf (fun ?header ?tags fmt ->
        ignore tags;
        let hdr = match header with Some h -> h ^ " " | None -> "" in
        Format.kfprintf k ppf
          ("[%a] %s %a %s@[" ^^ fmt ^^ "@]@.")
          Time.pp (Engine.now engine) (Logs.Src.name src) Logs.pp_level lvl hdr)
  in
  Logs.set_reporter { Logs.report };
  Logs.set_level (Some level)

module String_table = Hashtbl.Make (String)

let sources : Logs.src String_table.t = String_table.create 8

let src name =
  match String_table.find_opt sources name with
  | Some s -> s
  | None ->
      let s = Logs.Src.create name ~doc:(name ^ " component") in
      String_table.replace sources name s;
      s
