(* Tests for cm_util: time, json, rng, wheel, stats, ewma, timeline,
   byte_queue. *)

open Cm_util

let ( => ) name cond = Alcotest.(check bool) name true cond

(* ---- Time ---------------------------------------------------------- *)

let test_time_units () =
  Alcotest.(check int) "us" 1_000 (Time.us 1);
  Alcotest.(check int) "ms" 1_000_000 (Time.ms 1);
  Alcotest.(check int) "sec" 1_000_000_000 (Time.sec 1.);
  Alcotest.(check int) "minutes" (60 * 1_000_000_000) (Time.minutes 1.);
  Alcotest.(check (float 1e-9)) "to_float_s" 1.5 (Time.to_float_s (Time.sec 1.5));
  Alcotest.(check (float 1e-9)) "to_float_ms" 2. (Time.to_float_ms (Time.ms 2))

let test_time_arith () =
  let t = Time.add Time.zero (Time.ms 5) in
  Alcotest.(check int) "add" (Time.ms 5) t;
  Alcotest.(check int) "diff" (Time.ms 3) (Time.diff (Time.ms 5) (Time.ms 2));
  Alcotest.(check int) "min" (Time.ms 2) (Time.min (Time.ms 5) (Time.ms 2));
  Alcotest.(check int) "max" (Time.ms 5) (Time.max (Time.ms 5) (Time.ms 2))

let test_time_pp () =
  let s v = Format.asprintf "%a" Time.pp v in
  "ns rendering" => (s 12 = "12ns");
  "us rendering" => (s (Time.us 3) = "3.00us");
  "ms rendering" => (s (Time.ms 7) = "7.000ms");
  "s rendering" => (s (Time.sec 2.) = "2.0000s")

(* ---- Json ----------------------------------------------------------- *)

let test_json_escape_control_chars () =
  let s = Json.to_string (Json.Str "a\"b\\c\nd\re\tf\bg\012h\x01i") in
  "quote/backslash/newline" => (s = "\"a\\\"b\\\\c\\nd\\re\\tf\\bg\\fh\\u0001i\"");
  (* and the escaped form parses back to the original *)
  match Json.parse s with
  | Ok (Json.Str r) -> "roundtrip" => (r = "a\"b\\c\nd\re\tf\bg\012h\x01i")
  | _ -> Alcotest.fail "escaped string did not parse back"

let test_json_nonfinite_floats () =
  "nan is null" => (Json.to_string (Json.Float Float.nan) = "null");
  "inf is null" => (Json.to_string (Json.Float Float.infinity) = "null");
  "-inf is null" => (Json.to_string (Json.Float Float.neg_infinity) = "null");
  "finite stays numeric" => (Json.to_string (Json.Float 2.5) = "2.5")

let test_json_parse_roundtrip () =
  let doc =
    Json.Obj
      [
        ("s", Json.Str "he said \"hi\"\n");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.25);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Str "x"; Json.Obj [ ("k", Json.Int 2) ] ]);
      ]
  in
  let s = Json.to_string doc in
  match Json.parse s with
  | Ok doc' -> "render/parse/render fixpoint" => (Json.to_string doc' = s)
  | Error e -> Alcotest.fail ("parse failed: " ^ e)

let test_json_parse_rejects_garbage () =
  let bad = [ "{"; "[1,"; "\"unterminated"; "{\"a\" 1}"; "tru"; "1.2.3"; "[] trailing" ] in
  List.iter
    (fun s ->
      match Json.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "parse accepted %S" s))
    bad

let test_json_parse_unicode_escape () =
  match Json.parse "\"a\\u00e9b\"" with
  | Ok (Json.Str s) -> "\\uXXXX decodes to UTF-8" => (s = "a\xc3\xa9b")
  | _ -> Alcotest.fail "unicode escape did not parse"

(* ---- Rng ------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  let xs = List.init 100 (fun _ -> Rng.int a 1000) in
  let ys = List.init 100 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys

let test_rng_seed_matters () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let xs = List.init 50 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 50 (fun _ -> Rng.int b 1_000_000) in
  "different seeds diverge" => (xs <> ys)

let test_rng_bounds () =
  let r = Rng.create ~seed:3 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.fail "out of bounds"
  done;
  for _ = 1 to 10_000 do
    let f = Rng.float r 2.5 in
    if f < 0. || f >= 2.5 then Alcotest.fail "float out of bounds"
  done

let test_rng_bernoulli_frequency () =
  let r = Rng.create ~seed:4 in
  let hits = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Rng.bernoulli r 0.3 then incr hits
  done;
  let freq = float_of_int !hits /. float_of_int n in
  "bernoulli(0.3) frequency within 1%" => (Float.abs (freq -. 0.3) < 0.01)

let test_rng_exponential_mean () =
  let r = Rng.create ~seed:5 in
  let sum = ref 0. in
  let n = 100_000 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:4.0
  done;
  let mean = !sum /. float_of_int n in
  "exponential mean within 3%" => (Float.abs (mean -. 4.0) < 0.12)

let test_rng_split_independent () =
  let r = Rng.create ~seed:6 in
  let a = Rng.split r and b = Rng.split r in
  let xs = List.init 20 (fun _ -> Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1000) in
  "split streams differ" => (xs <> ys)

(* ---- Heap (the wheel's pure-heap mode) ------------------------------ *)

(* [Wheel.create ~slots:0] is a single binary heap over (time, seq): the
   reference the timing wheel is checked against, so it is itself checked
   against a sorted-list model here. *)
let heap dummy = Wheel.create ~slots:0 ~dummy ()

let pop h =
  if Wheel.is_empty h then None
  else
    let e = Wheel.pop_min h in
    Some (Wheel.handle_time e, Wheel.handle_value e)

let pop_all h n = List.init n (fun _ -> pop h) |> List.filter_map Fun.id

let test_heap_orders () =
  let h = heap 0 in
  List.iter (fun p -> ignore (Wheel.insert h ~time:p p)) [ 5; 1; 4; 1; 3; 9; 0 ];
  Alcotest.(check (list (pair int int)))
    "sorted output"
    [ (0, 0); (1, 1); (1, 1); (3, 3); (4, 4); (5, 5); (9, 9) ]
    (pop_all h 7)

let test_heap_fifo_ties () =
  let h = heap "" in
  List.iter (fun v -> ignore (Wheel.insert h ~time:7 v)) [ "first"; "second"; "third" ];
  Alcotest.(check (list string))
    "FIFO among equal priorities" [ "first"; "second"; "third" ]
    (List.map snd (pop_all h 3))

let test_heap_remove () =
  let h = heap "" in
  let _a = Wheel.insert h ~time:1 "a" in
  let b = Wheel.insert h ~time:2 "b" in
  let _c = Wheel.insert h ~time:3 "c" in
  "remove succeeds" => Wheel.remove h b;
  "second remove fails" => not (Wheel.remove h b);
  Alcotest.(check (list string)) "b removed" [ "a"; "c" ] (List.map snd (pop_all h 3))

let test_heap_clear_and_size () =
  let h = heap 0 in
  for i = 1 to 100 do
    ignore (Wheel.insert h ~time:i i)
  done;
  Alcotest.(check int) "size" 100 (Wheel.size h);
  Wheel.filter_in_place h (fun _ -> false);
  Alcotest.(check int) "cleared" 0 (Wheel.size h);
  "pop on empty" => (pop h = None)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap extracts in priority order" ~count:200
    QCheck.(list small_int)
    (fun prios ->
      let h = heap 0 in
      List.iter (fun p -> ignore (Wheel.insert h ~time:p p)) prios;
      List.map fst (pop_all h (List.length prios)) = List.sort Stdlib.compare prios)

let prop_heap_removal_consistent =
  QCheck.Test.make ~name:"heap removal keeps order" ~count:100
    QCheck.(pair (list small_int) (list bool))
    (fun (prios, removes) ->
      let h = heap 0 in
      let handles = List.map (fun p -> (p, Wheel.insert h ~time:p p)) prios in
      let kept =
        List.filteri
          (fun i (_, hd) ->
            let remove = List.nth_opt removes i = Some true in
            if remove then ignore (Wheel.remove h hd);
            not remove)
          handles
        |> List.map fst
      in
      List.map fst (pop_all h (List.length kept)) = List.sort Stdlib.compare kept)

let test_heap_update_prio () =
  let h = heap "" in
  let a = Wheel.insert h ~time:10 "a" in
  let _b = Wheel.insert h ~time:20 "b" in
  let c = Wheel.insert h ~time:30 "c" in
  "decrease-key succeeds" => Wheel.update h c ~time:5;
  "increase-key succeeds" => Wheel.update h a ~time:40;
  Alcotest.(check (list (pair int string)))
    "re-keyed order" [ (5, "c"); (20, "b"); (40, "a") ] (pop_all h 3);
  "update after extraction fails" => not (Wheel.update h c ~time:1)

let test_heap_update_prio_refreshes_fifo () =
  (* a re-keyed element behaves like a fresh insert among equal priorities *)
  let h = heap "" in
  let a = Wheel.insert h ~time:7 "rekeyed" in
  ignore (Wheel.insert h ~time:7 "second");
  "same-prio update" => Wheel.update h a ~time:7;
  Alcotest.(check (list string))
    "re-keyed element moved behind" [ "second"; "rekeyed" ]
    (List.map snd (pop_all h 2))

let test_heap_reinsert () =
  (* an extracted entry can be recycled: same value, fresh key, and FIFO
     behaviour identical to a fresh insert among equal priorities *)
  let h = heap "" in
  let a = Wheel.insert h ~time:10 "recycled" in
  ignore (pop h);
  "extracted handle is dead" => not (Wheel.mem h a);
  ignore (Wheel.insert h ~time:7 "tie-first");
  Wheel.reinsert h a ~time:7;
  "reinserted handle is live" => Wheel.mem h a;
  Alcotest.(check (list (pair int string)))
    "reinserted entry behaves like a fresh insert"
    [ (7, "tie-first"); (7, "recycled") ]
    (pop_all h 2);
  (try
     Wheel.reinsert h (Wheel.insert h ~time:1 "live") ~time:2;
     Alcotest.fail "reinsert of a live handle must raise"
   with Invalid_argument _ -> ())

(* A seq taken early keys an entry as if it had been queued then: it pops
   ahead of every entry queued after the reservation, in both modes and
   on both sides of the wheel horizon, whether [rekey] moves a queued
   entry or queues a detached one. *)
let test_reserved_seq_orders_at_reservation () =
  List.iter
    (fun (slots, time) ->
      let w = Wheel.create ~slots ~dummy:"" () in
      let early = Wheel.reserve_seq w in
      ignore (Wheel.insert w ~time "queued after the reservation");
      let moved = Wheel.insert w ~time:(time + 1) "moved" in
      Wheel.rekey w (Wheel.detached "reserved") ~time ~seq:early;
      Wheel.rekey w moved ~time ~seq:(Wheel.reserve_seq w);
      ignore (Wheel.insert w ~time "queued last");
      Alcotest.(check (list string))
        (Printf.sprintf "slots %d, time %d" slots time)
        [ "reserved"; "queued after the reservation"; "moved"; "queued last" ]
        (List.map snd (pop_all w 4)))
    [ (0, 7); (1024, 7); (1024, 1_000_000_000) ]

(* Model-based randomized test: drive the heap and a sorted-list reference
   with the same operation stream (insert / pop_min / remove / update) and
   require identical observable behaviour, including the FIFO tie-break
   among equal priorities.  The reference mirrors the heap's sequence
   numbering: one fresh seq per insert *and* per update. *)
let prop_heap_model =
  let open QCheck in
  let op = triple (int_bound 3) (int_bound 20) (int_bound 100) in
  Test.make ~name:"heap matches reference model (insert/pop_min/remove/update, FIFO)"
    ~count:300 (list op)
    (fun ops ->
      let h = heap 0 in
      let seq = ref 0 in
      let next_id = ref 0 in
      (* model: association list id -> (prio, seq); handles: id -> handle *)
      let model = ref [] in
      let handles = Hashtbl.create 16 in
      let ok = ref true in
      let check b = if not b then ok := false in
      let expected_min () =
        List.fold_left
          (fun acc (id, (p, s)) ->
            match acc with
            | Some (_, (bp, bs)) when (bp, bs) <= (p, s) -> acc
            | _ -> Some (id, (p, s)))
          None !model
      in
      let pick_id k =
        (* any id ever created: lets us hit stale handles too *)
        if !next_id = 0 then None else Some (k mod !next_id)
      in
      List.iter
        (fun (kind, prio, k) ->
          match kind with
          | 0 ->
              let id = !next_id in
              incr next_id;
              Hashtbl.replace handles id (Wheel.insert h ~time:prio id);
              model := (id, (prio, !seq)) :: !model;
              incr seq
          | 1 -> (
              match expected_min () with
              | None -> check (pop h = None)
              | Some (id, (p, _)) ->
                  model := List.remove_assoc id !model;
                  check (pop h = Some (p, id)))
          | 2 -> (
              match pick_id k with
              | None -> ()
              | Some id ->
                  let live = List.mem_assoc id !model in
                  let r = Wheel.remove h (Hashtbl.find handles id) in
                  check (r = live);
                  if live then model := List.remove_assoc id !model)
          | _ -> (
              match pick_id k with
              | None -> ()
              | Some id ->
                  let live = List.mem_assoc id !model in
                  let r = Wheel.update h (Hashtbl.find handles id) ~time:prio in
                  check (r = live);
                  if live then begin
                    model := (id, (prio, !seq)) :: List.remove_assoc id !model;
                    incr seq
                  end))
        ops;
      (* drain: remaining elements must come out in (prio, seq) order *)
      check (Wheel.size h = List.length !model);
      let rec drain () =
        match expected_min () with
        | None -> check (pop h = None)
        | Some (id, (p, _)) ->
            model := List.remove_assoc id !model;
            check (pop h = Some (p, id));
            drain ()
      in
      drain ();
      !ok)

(* ---- Wheel ----------------------------------------------------------- *)

(* [Wheel.ntz] (de Bruijn multiply + table) against the halving loop it
   replaced, on every single-bit word and 10,000 random non-zero 32-bit
   words. *)
let test_wheel_ntz () =
  let reference x =
    let x = x land -x in
    let n = ref 0 in
    let x = if x land 0xFFFF = 0 then (n := !n + 16; x lsr 16) else x in
    let x = if x land 0xFF = 0 then (n := !n + 8; x lsr 8) else x in
    let x = if x land 0xF = 0 then (n := !n + 4; x lsr 4) else x in
    let x = if x land 0x3 = 0 then (n := !n + 2; x lsr 2) else x in
    if x land 0x1 = 0 then !n + 1 else !n
  in
  for b = 0 to 31 do
    Alcotest.(check int) (Printf.sprintf "ntz (1 lsl %d)" b) b (Wheel.ntz (1 lsl b))
  done;
  let st = Random.State.make [| 42 |] in
  let n = ref 0 in
  while !n < 10_000 do
    let x = ((Random.State.bits st lsl 2) lxor Random.State.bits st) land 0xFFFF_FFFF in
    if x <> 0 then begin
      if Wheel.ntz x <> reference x then
        Alcotest.failf "ntz 0x%x: %d, loop %d" x (Wheel.ntz x) (reference x);
      incr n
    end
  done

(* The timing wheel must be observationally identical to its pure-heap
   mode: drive both through one randomized program — inserts and
   re-keys up to ~60 ms ahead (3.6x the default ~16.8 ms horizon, so
   entries land in the current slot, wheel slots and the overflow heap,
   and migrate on cursor advance), ties at the current time, recycled
   entries, removals, filters and pops — and require the same pop
   sequence, the same return values and the same sizes throughout. *)
let prop_wheel_matches_heap =
  QCheck.Test.make ~name:"wheel pop sequence = pure-heap pop sequence" ~count:200
    QCheck.(list (triple (int_bound 6) (int_bound 3_000) small_nat))
    (fun ops ->
      let w = Wheel.create ~dummy:0 () and h = heap 0 in
      let now = ref 0 and next_id = ref 0 and hs = ref [] in
      let nth k = match !hs with [] -> None | l -> List.nth_opt l (k mod List.length l) in
      let ok = ref true in
      let check b = if not b then ok := false in
      let at t = !now + if t mod 7 = 0 then 0 else t * 20_000 in
      let pop_both () =
        let pw = pop w and ph = pop h in
        check (pw = ph);
        Option.iter (fun (t, _) -> now := t) pw
      in
      List.iter
        (fun (op, t, k) ->
          (match (op, nth k) with
          | (0 | 1), _ ->
              let id = !next_id in
              incr next_id;
              hs := (Wheel.insert w ~time:(at t) id, Wheel.insert h ~time:(at t) id) :: !hs
          | 2, Some (ew, eh) ->
              check (Wheel.mem w ew = Wheel.mem h eh);
              if not (Wheel.mem w ew) then begin
                Wheel.reinsert w ew ~time:(at t);
                Wheel.reinsert h eh ~time:(at t)
              end
          | 3, Some (ew, eh) -> check (Wheel.remove w ew = Wheel.remove h eh)
          | 4, Some (ew, eh) ->
              check (Wheel.update w ew ~time:(at t) = Wheel.update h eh ~time:(at t))
          | 5, _ -> pop_both ()
          | 6, _ when k mod 8 = 0 ->
              let keep v = v mod 5 <> t mod 5 in
              Wheel.filter_in_place w keep;
              Wheel.filter_in_place h keep
          | _ -> ());
          check (Wheel.size w = Wheel.size h))
        ops;
      while not (Wheel.is_empty w && Wheel.is_empty h) do
        pop_both ()
      done;
      !ok)

(* ---- Stats ----------------------------------------------------------- *)

let test_stats_moments () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  Alcotest.(check int) "count" 8 (Stats.count s);
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Stats.mean s);
  Alcotest.(check (float 1e-4)) "stddev (sample)" 2.13809 (Stats.stddev s);
  Alcotest.(check (float 1e-9)) "min" 2.0 (Stats.min_value s);
  Alcotest.(check (float 1e-9)) "max" 9.0 (Stats.max_value s);
  Alcotest.(check (float 1e-9)) "sum" 40.0 (Stats.sum s)

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () and whole = Stats.create () in
  let xs = [ 1.; 2.; 3. ] and ys = [ 10.; 20.; 30.; 40. ] in
  List.iter (Stats.add a) xs;
  List.iter (Stats.add b) ys;
  List.iter (Stats.add whole) (xs @ ys);
  let m = Stats.merge a b in
  Alcotest.(check int) "merged count" (Stats.count whole) (Stats.count m);
  Alcotest.(check (float 1e-9)) "merged mean" (Stats.mean whole) (Stats.mean m);
  Alcotest.(check (float 1e-6)) "merged variance" (Stats.variance whole) (Stats.variance m)

let test_stats_percentile () =
  let xs = Array.init 101 (fun i -> float_of_int i) in
  Alcotest.(check (float 1e-9)) "p0" 0. (Stats.percentile xs 0.);
  Alcotest.(check (float 1e-9)) "p50" 50. (Stats.percentile xs 50.);
  Alcotest.(check (float 1e-9)) "p100" 100. (Stats.percentile xs 100.);
  Alcotest.(check (float 1e-9)) "median" 50. (Stats.median xs);
  "empty is nan" => Float.is_nan (Stats.percentile [||] 50.)

(* ---- Ewma ------------------------------------------------------------- *)

let test_ewma () =
  let e = Ewma.create ~gain:0.5 in
  "uninitialized" => not (Ewma.initialized e);
  "nan before samples" => Float.is_nan (Ewma.value e);
  Ewma.update e 10.;
  Alcotest.(check (float 1e-9)) "first sample direct" 10. (Ewma.value e);
  Ewma.update e 20.;
  Alcotest.(check (float 1e-9)) "second smoothed" 15. (Ewma.value e);
  Ewma.reset e;
  "reset forgets" => not (Ewma.initialized e)

let test_ewma_invalid_gain () =
  "gain 0 rejected"
  => (try
        ignore (Ewma.create ~gain:0.);
        false
      with Invalid_argument _ -> true);
  "gain > 1 rejected"
  => (try
        ignore (Ewma.create ~gain:1.5);
        false
      with Invalid_argument _ -> true)

(* ---- Timeline ---------------------------------------------------------- *)

let test_timeline_rate_series () =
  let tl = Timeline.create () in
  Timeline.record tl (Time.ms 100) 1000.;
  Timeline.record tl (Time.ms 900) 2000.;
  Timeline.record tl (Time.ms 1500) 1000.;
  let series = Timeline.rate_series tl ~bin:(Time.sec 1.) ~until:(Time.sec 2.) in
  match series with
  | [ (t0, r0); (t1, r1) ] ->
      Alcotest.(check int) "bin 0 start" 0 t0;
      Alcotest.(check (float 1e-9)) "bin 0 rate" 3000. r0;
      Alcotest.(check int) "bin 1 start" (Time.sec 1.) t1;
      Alcotest.(check (float 1e-9)) "bin 1 rate" 1000. r1
  | _ -> Alcotest.fail "expected two bins"

let test_timeline_sampled_series () =
  let tl = Timeline.create () in
  Timeline.record tl (Time.ms 0) 1.;
  Timeline.record tl (Time.ms 2500) 2.;
  let series = Timeline.sampled_series tl ~bin:(Time.sec 1.) ~until:(Time.sec 4.) in
  let values = List.map snd series in
  match values with
  | [ a; b; c; d ] ->
      Alcotest.(check (float 1e-9)) "t=0" 1. a;
      Alcotest.(check (float 1e-9)) "t=1" 1. b;
      Alcotest.(check (float 1e-9)) "t=2" 1. c;
      Alcotest.(check (float 1e-9)) "t=3 picks latest" 2. d
  | _ -> Alcotest.fail "expected four samples"

let test_timeline_basics () =
  let tl = Timeline.create () in
  Alcotest.(check int) "empty" 0 (Timeline.length tl);
  "no last" => (Timeline.last tl = None);
  Timeline.record tl 5 42.;
  Alcotest.(check int) "one point" 1 (Timeline.length tl);
  (match Timeline.last tl with
  | Some p -> Alcotest.(check (float 1e-9)) "last value" 42. p.Timeline.value
  | None -> Alcotest.fail "expected last");
  Alcotest.(check (float 1e-9)) "mean" 42. (Timeline.mean_value tl)

(* ---- Int_table ---------------------------------------------------------- *)

(* Keys that differ only above their low bits still spread: the CM packs
   a per-destination key as [host * 64 + dscp], which an identity hash
   put in one bucket (128 destinations, one chain of 128). *)
let test_int_table_spreads_packed_keys () =
  let t = Int_table.create 16 in
  for host = 1 to 128 do
    Int_table.replace t (host * 64) host
  done;
  for host = 1 to 128 do
    Alcotest.(check int) "found" host (Int_table.find t (host * 64))
  done;
  let st = Int_table.stats t in
  "no long chain" => (st.Hashtbl.max_bucket_length <= 8)

(* ---- Byte_queue --------------------------------------------------------- *)

let test_byte_queue_fifo () =
  let q = Byte_queue.create ~dummy:"" () in
  Byte_queue.push q ~size:10 "a";
  Byte_queue.push q ~size:20 "b";
  Alcotest.(check int) "bytes" 30 (Byte_queue.bytes q);
  Alcotest.(check int) "length" 2 (Byte_queue.length q);
  Alcotest.(check (option string)) "peek" (Some "a") (Byte_queue.peek q);
  Alcotest.(check (option string)) "pop order" (Some "a") (Byte_queue.pop q);
  Alcotest.(check int) "bytes after pop" 20 (Byte_queue.bytes q);
  Alcotest.(check (option (pair string int))) "drop_head returns size" (Some ("b", 20))
    (Byte_queue.drop_head q);
  "empty" => Byte_queue.is_empty q

let test_byte_queue_take () =
  let q = Byte_queue.create ~dummy:"" () in
  Byte_queue.push q ~size:3 "x";
  Byte_queue.push q ~size:4 "y";
  Alcotest.(check string) "take returns the head" "x" (Byte_queue.take q);
  Alcotest.(check int) "and releases its bytes" 4 (Byte_queue.bytes q);
  Alcotest.(check string) "then the next" "y" (Byte_queue.take q);
  Alcotest.check_raises "take on an empty queue" (Invalid_argument "Byte_queue.take: empty queue")
    (fun () -> ignore (Byte_queue.take q))

let prop_byte_queue_conserves =
  QCheck.Test.make ~name:"byte_queue bytes = sum of element sizes" ~count:200
    QCheck.(list (int_bound 1000))
    (fun sizes ->
      let q = Byte_queue.create ~dummy:0 () in
      List.iter (fun s -> Byte_queue.push q ~size:s s) sizes;
      let total = List.fold_left ( + ) 0 sizes in
      let ok1 = Byte_queue.bytes q = total in
      let popped = ref 0 in
      let rec drain () =
        match Byte_queue.pop q with
        | Some s ->
            popped := !popped + s;
            drain ()
        | None -> ()
      in
      drain ();
      ok1 && !popped = total && Byte_queue.bytes q = 0)

type bq_op = Push of int | Pop | Drop | Last | Peek | Clear

let show_bq_op = function
  | Push s -> Printf.sprintf "push %d" s
  | Pop -> "pop"
  | Drop -> "drop_head"
  | Last -> "take_last"
  | Peek -> "peek"
  | Clear -> "clear"

(* Model-based randomized test against a list: pushes outweigh removals,
   so sequences grow the ring through several doublings while pops keep
   moving the head, and the live run wraps around the array end at both
   ends (pops and tail removals); a rare clear restarts from an empty
   ring that keeps its storage.  After
   every step, [iter] must list the model's elements in order (each
   element is a fresh counter value, so order mistakes show). *)
let prop_byte_queue_model =
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          (100, map (fun s -> Push s) (int_bound 1500));
          (48, return Pop);
          (24, return Drop);
          (12, return Last);
          (16, return Peek);
          (1, return Clear);
        ])
  in
  let ops =
    QCheck.make
      ~print:(fun ops -> String.concat "; " (List.map show_bq_op ops))
      QCheck.Gen.(list_size (int_range 0 600) gen_op)
  in
  QCheck.Test.make ~name:"byte_queue matches list model (growth, wrap-around, clear)" ~count:300
    ops (fun ops ->
      let q = Byte_queue.create ~dummy:(-1) () in
      (* model: (value, size) pairs, head first *)
      let model = ref [] in
      let next = ref 0 in
      let head () = match !model with [] -> None | x :: _ -> Some x in
      let behead () = model := List.tl !model in
      let step op =
        let agrees =
          match op with
          | Push size ->
              incr next;
              Byte_queue.push q ~size !next;
              model := !model @ [ (!next, size) ];
              true
          | Pop ->
              let expect = Option.map fst (head ()) in
              if expect <> None then behead ();
              Byte_queue.pop q = expect
          | Drop ->
              let expect = head () in
              if expect <> None then behead ();
              Byte_queue.drop_head q = expect
          | Last -> (
              match List.rev !model with
              | [] -> true
              | (v, _) :: rest ->
                  model := List.rev rest;
                  Byte_queue.take_last q = v)
          | Peek -> Byte_queue.peek q = Option.map fst (head ())
          | Clear ->
              Byte_queue.clear q;
              model := [];
              true
        in
        let order = ref [] in
        Byte_queue.iter (fun v -> order := v :: !order) q;
        agrees
        && Byte_queue.length q = List.length !model
        && Byte_queue.is_empty q = (!model = [])
        && Byte_queue.bytes q = List.fold_left (fun acc (_, s) -> acc + s) 0 !model
        && List.rev !order = List.map fst !model
      in
      List.for_all step ops)

(* A removed element must not stay reachable through the ring's array:
   the filler overwrites its slot.  Each element is a fresh [ref] tracked
   by a weak pointer; after the removal and a full major collection, the
   removed one is gone and the one still queued is not. *)
let test_byte_queue_releases_slots () =
  List.iter
    (fun (how, remove, kept_survives) ->
      let q = Byte_queue.create ~dummy:(ref 0) () in
      let w = Weak.create 2 in
      let[@inline never] fill () =
        let removed = ref 1 and kept = ref 2 in
        Weak.set w 0 (Some removed);
        Weak.set w 1 (Some kept);
        Byte_queue.push q ~size:1 removed;
        Byte_queue.push q ~size:1 kept
      in
      fill ();
      remove q;
      Gc.full_major ();
      (how ^ ": removed element collected") => not (Weak.check w 0);
      (how ^ ": queued element alive") => (Weak.check w 1 = kept_survives);
      (* the queue itself stays live up to here *)
      Alcotest.(check int) (how ^ ": length") (if kept_survives then 1 else 0)
        (Byte_queue.length q))
    [
      ("pop", (fun q -> ignore (Byte_queue.pop q)), true);
      ("drop_head", (fun q -> ignore (Byte_queue.drop_head q)), true);
      ("clear", Byte_queue.clear, false);
    ]

type rec8 = { f0 : int; f1 : int; f2 : int; f3 : int; f4 : int; f5 : int; f6 : int; f7 : int }

(* Promotion canary: a FIFO at a steady depth of 32 holds each element
   for 32 pushes, far less than a minor heap, so almost nothing it
   carries should survive a minor collection.  A linked queue fails
   this: once one cell is promoted, each push writes the next young cell
   into a major-heap cell, and every minor collection promotes the whole
   chain pushed since, with its elements (well over 8 words per item). *)
let test_byte_queue_promotion_canary () =
  let fresh i = Sys.opaque_identity { f0 = i; f1 = i; f2 = i; f3 = i; f4 = i; f5 = i; f6 = i; f7 = i } in
  let q = Byte_queue.create ~dummy:(fresh 0) () in
  for i = 1 to 32 do
    Byte_queue.push q ~size:8 (fresh i)
  done;
  (* the queue's own storage is old from here on *)
  Gc.minor ();
  let items = 200_000 in
  let p0 = (Gc.quick_stat ()).Gc.promoted_words in
  for i = 1 to items do
    Byte_queue.push q ~size:8 (fresh i);
    ignore (Sys.opaque_identity (Byte_queue.pop q))
  done;
  let p1 = (Gc.quick_stat ()).Gc.promoted_words in
  let per_item = (p1 -. p0) /. float_of_int items in
  if per_item >= 1. then
    Alcotest.failf "%.2f promoted words per item (must stay under 1)" per_item;
  Alcotest.(check int) "steady depth" 32 (Byte_queue.length q)

let () =
  Alcotest.run "util"
    [
      ( "time",
        [
          Alcotest.test_case "unit conversions" `Quick test_time_units;
          Alcotest.test_case "arithmetic" `Quick test_time_arith;
          Alcotest.test_case "pretty printing" `Quick test_time_pp;
        ] );
      ( "json",
        [
          Alcotest.test_case "control chars escape + roundtrip" `Quick
            test_json_escape_control_chars;
          Alcotest.test_case "non-finite floats render null" `Quick test_json_nonfinite_floats;
          Alcotest.test_case "parse roundtrip" `Quick test_json_parse_roundtrip;
          Alcotest.test_case "parse rejects garbage" `Quick test_json_parse_rejects_garbage;
          Alcotest.test_case "unicode escape" `Quick test_json_parse_unicode_escape;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic from seed" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds diverge" `Quick test_rng_seed_matters;
          Alcotest.test_case "bounds respected" `Quick test_rng_bounds;
          Alcotest.test_case "bernoulli frequency" `Quick test_rng_bernoulli_frequency;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
        ] );
      ( "heap",
        [
          Alcotest.test_case "orders by priority" `Quick test_heap_orders;
          Alcotest.test_case "fifo among ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "removal" `Quick test_heap_remove;
          Alcotest.test_case "clear and size" `Quick test_heap_clear_and_size;
          Alcotest.test_case "update_prio re-keys" `Quick test_heap_update_prio;
          Alcotest.test_case "update_prio refreshes FIFO rank" `Quick
            test_heap_update_prio_refreshes_fifo;
          Alcotest.test_case "reinsert recycles an extracted entry" `Quick test_heap_reinsert;
          Alcotest.test_case "a reserved seq orders at its reservation" `Quick
            test_reserved_seq_orders_at_reservation;
          QCheck_alcotest.to_alcotest prop_heap_sorts;
          QCheck_alcotest.to_alcotest prop_heap_removal_consistent;
          QCheck_alcotest.to_alcotest prop_heap_model;
        ] );
      ( "wheel",
        [
          QCheck_alcotest.to_alcotest prop_wheel_matches_heap;
          Alcotest.test_case "ntz matches the halving loop" `Quick test_wheel_ntz;
        ] );
      ( "stats",
        [
          Alcotest.test_case "moments" `Quick test_stats_moments;
          Alcotest.test_case "merge" `Quick test_stats_merge;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
        ] );
      ( "ewma",
        [
          Alcotest.test_case "smoothing" `Quick test_ewma;
          Alcotest.test_case "invalid gain" `Quick test_ewma_invalid_gain;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "rate series" `Quick test_timeline_rate_series;
          Alcotest.test_case "sampled series" `Quick test_timeline_sampled_series;
          Alcotest.test_case "basics" `Quick test_timeline_basics;
        ] );
      ( "int_table",
        [ Alcotest.test_case "packed keys spread" `Quick test_int_table_spreads_packed_keys ] );
      ( "byte_queue",
        [
          Alcotest.test_case "fifo with byte accounting" `Quick test_byte_queue_fifo;
          Alcotest.test_case "take, and take on empty raises" `Quick test_byte_queue_take;
          QCheck_alcotest.to_alcotest prop_byte_queue_conserves;
          QCheck_alcotest.to_alcotest prop_byte_queue_model;
          Alcotest.test_case "removed elements are released" `Quick
            test_byte_queue_releases_slots;
          Alcotest.test_case "promotion canary (steady depth 32)" `Quick
            test_byte_queue_promotion_canary;
        ] );
    ]
