(* Spec quickstart: declare a path and its sender's CM, check it
   statically, run it.
   Run with: dune exec examples/spec_quickstart.exe *)
open Cm_spec

let spec =
  Spec.(
    par
      [ node "a"; node "b"; cm [ "a" ];
        duplex ~bw:8e6 ~lat:(Cm_util.Time.ms 20) "a" "b";
        flows ~name:"push" ~src:[ "a" ] ~dst:"b" ~app:(bulk ~bytes:262_144) () ])

let () =
  let engine = Eventsim.Engine.create () in
  let net = Build.instantiate engine (Check.elaborate_exn spec) in
  let running = Launch.run net () in
  Eventsim.Engine.run_for engine (Cm_util.Time.sec 5.);
  Printf.printf "flows finished: %d/1\n" (Launch.done_count (List.hd running))
