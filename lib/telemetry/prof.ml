open Cm_util
open Eventsim

let summary engine =
  match Engine.prof_report engine with
  | None -> "profiler: off"
  | Some r ->
      let b = Buffer.create 256 in
      let q = r.Engine.pr_queue in
      Buffer.add_string b
        (Printf.sprintf "profiler: %d dispatches, %d wall samples over %.3f s\n"
           r.Engine.pr_dispatches r.Engine.pr_samples r.Engine.pr_wall_s);
      List.iter
        (fun (c : Engine.prof_category) ->
          let pct =
            if r.Engine.pr_dispatches = 0 then 0.
            else 100. *. float_of_int c.Engine.pc_dispatches /. float_of_int r.Engine.pr_dispatches
          in
          Buffer.add_string b
            (Printf.sprintf "  %-6s %10d dispatches (%5.1f%%)  %8.4f s sampled wall\n"
               c.Engine.pc_name c.Engine.pc_dispatches pct c.Engine.pc_wall_s))
        r.Engine.pr_categories;
      Buffer.add_string b
        (Printf.sprintf "  gc: %.0f minor words, %.0f major, %.0f promoted, %d/%d collections\n"
           r.Engine.pr_minor_words r.Engine.pr_major_words r.Engine.pr_promoted_words
           r.Engine.pr_minor_collections r.Engine.pr_major_collections);
      Buffer.add_string b
        (Printf.sprintf "  queue: hw %d (cur-slot hw %d), overflow %d inserts / %d migrations; pool hw %d"
           q.Wheel.hw_size q.Wheel.hw_cur q.Wheel.overflow_inserts q.Wheel.overflow_migrations
           r.Engine.pr_pool_hw);
      Buffer.contents b
