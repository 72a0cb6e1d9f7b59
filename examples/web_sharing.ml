(* Web state sharing: the Fig. 7 scenario as a runnable demo.

   A client fetches the same 128 KB file five times from a plain server
   and then from a CM-enabled server.  The CM server's macroflow keeps
   the congestion window and RTT estimate between connections, so the
   later fetches skip slow start.

   Run with: dune exec examples/web_sharing.exe *)

open Cm_util
open Eventsim
open Netsim
open Cm_spec

let fetch_times ~use_cm =
  let engine = Engine.create () in
  let net = Build.pipe engine (Spec.pipe ~bw:8e6 ~lat:(Time.ms 35) ()) in
  let driver =
    if use_cm then begin
      let cm = Cm.create engine () in
      Cm.attach cm net.Build.b;
      Tcp.Conn.Cm_driven cm
    end
    else Tcp.Conn.Native
  in
  let _server = Cm_apps.Web.server net.Build.b ~port:80 ~file_bytes:(128 * 1024) ~driver () in
  let results = ref [] in
  Cm_apps.Web.sequential_fetches net.Build.a
    ~dst:(Addr.endpoint ~host:1 ~port:80)
    ~expect_bytes:(128 * 1024) ~count:5 ~gap:(Time.ms 500)
    ~on_done:(fun rs -> results := rs)
    ();
  Engine.run_for engine (Time.sec 10.);
  List.map (fun r -> Time.to_float_ms r.Cm_apps.Web.duration) !results

let () =
  let plain = fetch_times ~use_cm:false in
  let cm = fetch_times ~use_cm:true in
  Format.printf "fetch#   plain-server(ms)   cm-server(ms)@.";
  List.iteri
    (fun i (p, c) -> Format.printf "%-8d %18.1f %15.1f@." (i + 1) p c)
    (List.combine plain cm);
  let last xs = List.nth xs (List.length xs - 1) in
  Format.printf "@.later fetches are %.0f%% faster with the CM server@."
    ((last plain -. last cm) /. last plain *. 100.)
