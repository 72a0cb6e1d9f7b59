open Cm_util
open Eventsim
open Netsim

(* Final stage of the spec pipeline: project flow groups onto running
   applications.  Everything is scheduled up front in declaration order
   (groups, then sources within a group), so launches are deterministic;
   flow [i] of a group starts at [start + i*stagger]. *)

type outcome =
  | Pending  (** Launched (or scheduled) but not finished. *)
  | Bulk_done of { at : Time.t; result : Cm_apps.Bulk.result }
  | Fetched of { at : Time.t; fetches : Cm_apps.Web.fetch_result list }
  | Streaming of Cm_apps.Layered.t
      (** Layered sources run until [stop]; read the source's counters
          and timelines after the run. *)

type running = { rg : Check.group; outcomes : outcome array }

let host_of (b : Build.t) i =
  match b.Build.impls.(i) with
  | Build.Host_impl h -> h
  | Build.Router_impl _ -> assert false (* router endpoints rejected statically *)

let addr_of (b : Build.t) i = b.Build.ir.Check.ir_nodes.(i).Check.n_addr

(* How a Bulk group's byte count maps onto ttcp buffers: whole 8 KiB
   buffers, rounded up. *)
let bulk_buffers bytes =
  let buffer_bytes = Stdlib.min bytes 8192 in
  ((bytes + buffer_bytes - 1) / buffer_bytes, buffer_bytes)

let run (b : Build.t) ~driver_for () =
  let engine = b.Build.engine in
  let servers = Hashtbl.create 8 in
  Array.to_list b.Build.ir.Check.ir_groups
  |> List.map (fun (g : Check.group) ->
         let dst_h = host_of b g.Check.g_dst in
         let outcomes = Array.make (Array.length g.Check.g_srcs) Pending in
         (* one shared web server per (dst, port), whatever group asks first *)
         (match g.Check.g_app with
         | Spec.Web_fetch { object_bytes; _ } ->
             if not (Hashtbl.mem servers (g.Check.g_dst, g.Check.g_port)) then begin
               Hashtbl.replace servers (g.Check.g_dst, g.Check.g_port) ();
               ignore
                 (Cm_apps.Web.server dst_h ~port:g.Check.g_port ~file_bytes:object_bytes
                    ?driver:(driver_for dst_h) ())
             end
         | Spec.Bulk _ | Spec.Layered _ -> ());
         Array.iteri
           (fun i si ->
             let src = host_of b si in
             let t0 = Time.add g.Check.g_start (i * g.Check.g_stagger) in
             match g.Check.g_app with
             | Spec.Bulk { bytes } ->
                 let port = g.Check.g_port + i in
                 let buffers, buffer_bytes = bulk_buffers bytes in
                 ignore
                   (Engine.schedule_at engine t0 (fun () ->
                        Cm_apps.Bulk.tcp_push ~src ~dst_host:dst_h ~port ~buffers ~buffer_bytes
                          ?driver:(driver_for src)
                          ~on_done:(fun result ->
                            outcomes.(i) <- Bulk_done { at = Engine.now engine; result })
                          ()))
             | Spec.Web_fetch { object_bytes; count; gap } ->
                 let dst = Addr.endpoint ~host:(addr_of b g.Check.g_dst) ~port:g.Check.g_port in
                 ignore
                   (Engine.schedule_at engine t0 (fun () ->
                        Cm_apps.Web.sequential_fetches src ~dst ~expect_bytes:object_bytes ~count
                          ~gap ?driver:(driver_for src)
                          ~on_done:(fun fetches ->
                            outcomes.(i) <- Fetched { at = Engine.now engine; fetches })
                          ()))
             | Spec.Layered { layers; packet_bytes; mode } ->
                 let port = g.Check.g_port + i in
                 let lib = Build.libcm b b.Build.ir.Check.ir_nodes.(si).Check.n_name in
                 ignore (Udp.Cc_socket.run_echo_receiver dst_h ~port ());
                 let source =
                   Cm_apps.Layered.create lib ~host:src
                     ~dst:(Addr.endpoint ~host:(addr_of b g.Check.g_dst) ~port)
                     ~layers ~mode ~packet_bytes ()
                 in
                 outcomes.(i) <- Streaming source;
                 ignore (Engine.schedule_at engine t0 (fun () -> Cm_apps.Layered.start source));
                 Option.iter
                   (fun stop ->
                     ignore
                       (Engine.schedule_at engine stop (fun () -> Cm_apps.Layered.stop source)))
                   g.Check.g_stop)
           g.Check.g_srcs;
         { rg = g; outcomes })

let done_count r =
  Array.fold_left
    (fun n -> function Bulk_done _ | Fetched _ -> n + 1 | Pending | Streaming _ -> n)
    0 r.outcomes

let find (rs : running list) name =
  match List.find_opt (fun r -> r.rg.Check.g_name = name) rs with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Launch.find: no flow group %S" name)
