(* A fixed reference load for measuring how fast the machine is right now.

   Shared machines drift: a whole run can go 10-50% faster or slower than
   the one before it, on every workload at once, and a single repetition
   can be slowed by a neighbour.  Each repetition of a workload runs
   passes of this kernel just before its set-up, between set-up and
   simulation, and just after; during the simulation phase it runs a
   short pass whenever 100 ms have gone by since the last one (from
   {!Wl.run_for}, between engine windows; that time is taken out of the
   simulation's wall).  A wall time is then scaled by the ratio of the
   nominal to the measured nanoseconds per kernel iteration around it:
   it is reported as if the machine ran at the speed where a full pass
   takes [nominal_ns].  On a shared 2-core VM this cut the run-to-run
   spread (interquartile range over median, ten runs) of the simulation
   rate from 15-50% raw to 3-5% scaled; the raw figures are still
   printed.  The passes at the edges alone miss load that comes and goes
   within a phase: in interleaved runs on five seeds they left a
   units_per_s spread of about 6% (bulk_tcpcm, flash_crowd), against
   2.5-3% with the short passes, and the simulation's raw speed between
   short passes did not measurably change.  The kernel uses only the
   standard library, so no change to the simulator can move it.  Its mix follows the simulator's:
   a binary heap of timestamps, indirect calls, a hash-table probe,
   scattered reads and writes, and a stream of writes like allocation. *)

let nominal_ns = 40_000_000

(* All state is allocated once and a pass allocates nothing: a pass that
   allocated would run collector slices paying for the workload's
   garbage, and time the workload instead of the machine.  The scattered
   array lives outside the OCaml heap, so the kernel adds nothing to the
   workloads' heap figures, and it is 1 MB: with 8 MB the kernel's speed
   depended on how each process's pages happened to be mapped, which
   added a per-run bias of its own.  A second, 4 MB array is written in
   sequence, two cache lines an iteration, as allocation sweeps the minor
   heap: without it the kernel missed part of the machine's slow-downs
   (IQR/median of bulk_tcpcm units_per_s over eight runs 10.5% without,
   2.8% with; per-repetition correlation of kernel and simulation speed
   0.80 without, 0.88 with). *)
let mem_words = 1 lsl 17
let mem = Bigarray.Array1.create Bigarray.int Bigarray.c_layout mem_words
let () = Bigarray.Array1.fill mem 0
let stream_words = 1 lsl 19
let stream = Bigarray.Array1.create Bigarray.int Bigarray.c_layout stream_words
let () = Bigarray.Array1.fill stream 0
let sweep = ref 0
let heap_cap = 4096
let keys = Array.make heap_cap 0
let vals = Array.make heap_cap 0
let size = ref 0
let table = Array.make 4096 (-1)
let acts = [| (fun v -> v + 1); (fun v -> v lxor 0x55); (fun v -> v * 3); (fun v -> v lsr 1) |]

let push k v =
  let i = ref !size in
  incr size;
  while !i > 0 && keys.((!i - 1) / 2) > k do
    let p = (!i - 1) / 2 in
    keys.(!i) <- keys.(p);
    vals.(!i) <- vals.(p);
    i := p
  done;
  keys.(!i) <- k;
  vals.(!i) <- v

let pop () =
  let top = vals.(0) in
  decr size;
  let k = keys.(!size) and v = vals.(!size) in
  let i = ref 0 and continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= !size then continue := false
    else begin
      let c = if l + 1 < !size && keys.(l + 1) < keys.(l) then l + 1 else l in
      if keys.(c) < k then begin
        keys.(!i) <- keys.(c);
        vals.(!i) <- vals.(c);
        i := c
      end
      else continue := false
    end
  done;
  keys.(!i) <- k;
  vals.(!i) <- v;
  top

let kernel iters =
  Array.fill table 0 (Array.length table) (-1);
  size := 0;
  for i = 0 to 1023 do
    push i i
  done;
  let x = ref 12345 and acc = ref 0 in
  for i = 1 to iters do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let slot = !x land (mem_words - 1) in
    mem.{slot} <- mem.{slot} + mem.{(slot * 7) land (mem_words - 1)} + 1;
    acc := !acc + acts.(pop () land 3) i;
    push (i + (!x land 1023)) !x;
    let h = !x land 4095 in
    if table.(h) >= 0 then acc := !acc + table.(h) else table.(h) <- i;
    stream.{!sweep} <- i;
    stream.{!sweep + 8} <- !acc;
    sweep := (!sweep + 16) land (stream_words - 1)
  done;
  ignore (Sys.opaque_identity !acc)

let full_pass = 200_000
let tick_pass = full_pass / 10
let tick_every_ns = 100_000_000

(* Kernel time and iterations measured around one phase. *)
type sample = { ns : int; iters : int }

let pass iters =
  let t0 = Probe.now () in
  kernel iters;
  { ns = Probe.now () - t0; iters }

let add a b = { ns = a.ns + b.ns; iters = a.iters + b.iters }

(* A wall time, scaled to the nominal machine speed. *)
let scale (s : sample) wall_ns =
  int_of_float
    (float_of_int wall_ns *. float_of_int nominal_ns /. float_of_int full_pass
    /. (float_of_int s.ns /. float_of_int s.iters))

(* Short passes during a simulation phase. *)
let ticks = ref { ns = 0; iters = 0 }
let last_tick = ref 0

let start_ticks () =
  ticks := { ns = 0; iters = 0 };
  last_tick := Probe.now ()

let tick () =
  if Probe.now () - !last_tick >= tick_every_ns then begin
    ticks := add !ticks (pass tick_pass);
    last_tick := Probe.now ()
  end

let stop_ticks () =
  let t = !ticks in
  last_tick := max_int;
  t

(* Ticks only run between [start_ticks] and [stop_ticks]. *)
let () = last_tick := max_int

(* the first pass pays page faults *)
let () = ignore (pass full_pass)
