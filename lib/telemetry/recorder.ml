open Cm_util

type t = {
  trace : Trace.t;
  engine : Eventsim.Engine.t;
  out_dir : string;
  tag : string;
  mutable dumps : int;
  mutable files : string list; (* newest first *)
}

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Unix.mkdir dir 0o755
  end

let dump t ~reason =
  mkdir_p t.out_dir;
  let path = Filename.concat t.out_dir (Printf.sprintf "%s-%03d.dump.jsonl" t.tag t.dumps) in
  t.dumps <- t.dumps + 1;
  t.files <- path :: t.files;
  let b = Buffer.create 4096 in
  (* header line first, so a truncated dump still says why it exists;
     everything below is virtual-time data — byte-identical per seed *)
  Json.write b
    (Json.Obj
       [
         ("recorder", Json.Str t.tag);
         ("reason", Json.Str reason);
         ("ts_ns", Json.Int (Eventsim.Engine.now t.engine));
         ("events", Json.Int (Trace.length t.trace));
         ("dropped", Json.Int (Trace.dropped t.trace));
       ]);
  Buffer.add_char b '\n';
  Trace.to_jsonl b t.trace;
  let oc = open_out_bin path in
  output_string oc (Buffer.contents b);
  close_out oc;
  path

let default_capacity = 4096

let create engine ~out_dir ?(tag = "recorder") trace =
  let t =
    {
      trace;
      engine;
      out_dir;
      tag;
      dumps = 0;
      files = [];
    }
  in
  (* a crash that escapes event dispatch dumps the ring before unwinding *)
  Eventsim.Engine.set_escape_hook engine
    (Some
       (fun e ->
         match dump t ~reason:("exception: " ^ Printexc.to_string e) with
         | (_ : string) -> ()
         | exception _ -> ()));
  t

let dumps t = t.dumps
let files t = List.rev t.files
let last_file t = match t.files with [] -> None | f :: _ -> Some f
