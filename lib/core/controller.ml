type t = {
  name : string;
  cwnd : unit -> int;
  ssthresh : unit -> int;
  in_slow_start : unit -> bool;
  on_ack : nbytes:int -> unit;
  on_loss : Cm_types.loss_mode -> unit;
  age : unit -> unit;
  reset : unit -> unit;
}

type factory = mtu:int -> t

(* effectively infinite: the first loss sets the real threshold *)
let initial_ssthresh = 1 lsl 30

let aimd ?(initial_window_pkts = 1) ?(max_window = 4 * 1024 * 1024) () ~mtu =
  if mtu <= 0 then invalid_arg "Controller.aimd: mtu must be positive";
  let iw = initial_window_pkts * mtu in
  let cwnd = ref iw and ssthresh = ref initial_ssthresh in
  (* accumulator for byte-counted congestion avoidance: grow by one MTU per
     cwnd bytes acked *)
  let acked_accum = ref 0 in
  let clamp () = cwnd := Stdlib.min max_window (Stdlib.max mtu !cwnd) in
  let on_ack ~nbytes =
    if nbytes > 0 then begin
      if !cwnd < !ssthresh then
        (* slow start with pure byte counting: the window grows by what the
           receiver actually absorbed.  Feedback batches (Fig. 10) produce
           correspondingly large single-step openings. *)
        cwnd := !cwnd + nbytes
      else begin
        acked_accum := !acked_accum + nbytes;
        if !acked_accum >= !cwnd then begin
          acked_accum := !acked_accum - !cwnd;
          cwnd := !cwnd + mtu
        end
      end;
      clamp ()
    end
  in
  let on_loss mode =
    (match mode with
    | Cm_types.No_loss -> ()
    | Cm_types.Ecn_echo | Cm_types.Transient ->
        ssthresh := Stdlib.max (!cwnd / 2) (2 * mtu);
        cwnd := !ssthresh
    | Cm_types.Persistent ->
        ssthresh := Stdlib.max (!cwnd / 2) (2 * mtu);
        cwnd := mtu);
    acked_accum := 0;
    clamp ()
  in
  let age () =
    (* stale feedback: decay toward the initial window without touching
       ssthresh, so slow start reopens the window once feedback resumes *)
    cwnd := Stdlib.max iw (!cwnd / 2);
    acked_accum := 0
  in
  let reset () =
    cwnd := iw;
    ssthresh := initial_ssthresh;
    acked_accum := 0
  in
  {
    name = "aimd";
    cwnd = (fun () -> !cwnd);
    ssthresh = (fun () -> !ssthresh);
    in_slow_start = (fun () -> !cwnd < !ssthresh);
    on_ack;
    on_loss;
    age;
    reset;
  }

(* binomial increase and decrease scale factors *)
let alpha = 1.0
let beta = 0.5

let binomial ~k ~l ?(initial_window_pkts = 1) ?(max_window = 4 * 1024 * 1024) () ~mtu =
  if mtu <= 0 then invalid_arg "Controller.binomial: mtu must be positive";
  let fmtu = float_of_int mtu in
  let iw = float_of_int (initial_window_pkts * mtu) in
  let ssthresh_init = float_of_int initial_ssthresh in
  let cwnd = ref iw and ssthresh = ref ssthresh_init in
  let clamp () = cwnd := Float.min (float_of_int max_window) (Float.max fmtu !cwnd) in
  let on_ack ~nbytes =
    if nbytes > 0 then begin
      if !cwnd < !ssthresh then cwnd := !cwnd +. float_of_int nbytes
      else begin
        (* increase of alpha·mtu^(k+1)/cwnd^k per cwnd bytes acked,
           i.e. proportionally per ack *)
        let per_window = alpha *. (fmtu ** (k +. 1.)) /. (!cwnd ** k) in
        cwnd := !cwnd +. (per_window *. float_of_int nbytes /. !cwnd)
      end;
      clamp ()
    end
  in
  let on_loss mode =
    (match mode with
    | Cm_types.No_loss -> ()
    | Cm_types.Ecn_echo | Cm_types.Transient ->
        let decrease = beta *. (!cwnd ** l) *. (fmtu ** (1. -. l)) in
        ssthresh := Float.max (!cwnd -. decrease) (2. *. fmtu);
        cwnd := !ssthresh
    | Cm_types.Persistent ->
        let decrease = beta *. (!cwnd ** l) *. (fmtu ** (1. -. l)) in
        ssthresh := Float.max (!cwnd -. decrease) (2. *. fmtu);
        cwnd := fmtu);
    clamp ()
  in
  let age () = cwnd := Float.max iw (!cwnd /. 2.) in
  let reset () =
    cwnd := iw;
    ssthresh := ssthresh_init
  in
  {
    name = Printf.sprintf "binomial(k=%g,l=%g)" k l;
    cwnd = (fun () -> int_of_float !cwnd);
    ssthresh = (fun () -> int_of_float !ssthresh);
    in_slow_start = (fun () -> !cwnd < !ssthresh);
    on_ack;
    on_loss;
    age;
    reset;
  }

let iiad () = binomial ~k:1.0 ~l:0.0 ()
let sqrt_ctl () = binomial ~k:0.5 ~l:0.5 ()

let equation ?(initial_window_pkts = 1) ?(max_window = 4 * 1024 * 1024) () ~mtu =
  if mtu <= 0 then invalid_arg "Controller.equation: mtu must be positive";
  (* TFRC-style equation-based control: estimate the loss-event interval
     (bytes acknowledged between congestion events, EWMA-smoothed) and set
     the window from the TCP-friendly formula W = MTU * sqrt(3 / (2 p))
     with p = MTU / interval.  Before the first loss event the controller
     slow starts like AIMD. *)
  let fmtu = float_of_int mtu in
  let iw = initial_window_pkts * mtu in
  let cwnd = ref iw in
  let bytes_since_loss = ref 0 in
  let interval = Cm_util.Ewma.create ~gain:0.25 in
  let clamp w = Stdlib.min max_window (Stdlib.max mtu w) in
  let equation_window () =
    if not (Cm_util.Ewma.initialized interval) then float_of_int max_window
    else begin
      let p = fmtu /. Float.max fmtu (Cm_util.Ewma.value interval) in
      fmtu *. Float.sqrt (1.5 /. p)
    end
  in
  let on_ack ~nbytes =
    if nbytes > 0 then begin
      bytes_since_loss := !bytes_since_loss + nbytes;
      if Cm_util.Ewma.initialized interval then begin
        (* the current loss-free run also informs the estimate: allow the
           window to creep up as the interval outgrows its average *)
        let optimistic = Float.max (Cm_util.Ewma.value interval) (float_of_int !bytes_since_loss) in
        let p = fmtu /. Float.max fmtu optimistic in
        cwnd := clamp (int_of_float (fmtu *. Float.sqrt (1.5 /. p)))
      end
      else cwnd := clamp (!cwnd + nbytes)
    end
  in
  let on_loss mode =
    (match mode with
    | Cm_types.No_loss -> ()
    | Cm_types.Ecn_echo | Cm_types.Transient ->
        Cm_util.Ewma.update_int interval !bytes_since_loss;
        bytes_since_loss := 0;
        cwnd := clamp (int_of_float (equation_window ()))
    | Cm_types.Persistent ->
        (* persistent congestion: a burst of loss events *)
        Cm_util.Ewma.update_int interval (!bytes_since_loss / 4);
        bytes_since_loss := 0;
        cwnd := clamp (int_of_float (equation_window () /. 2.)));
    ()
  in
  let age () =
    cwnd := clamp (Stdlib.max iw (!cwnd / 2));
    bytes_since_loss := 0
  in
  let reset () =
    cwnd := iw;
    bytes_since_loss := 0;
    Cm_util.Ewma.reset interval
  in
  {
    name = "equation";
    cwnd = (fun () -> !cwnd);
    ssthresh = (fun () -> max_window);
    in_slow_start = (fun () -> not (Cm_util.Ewma.initialized interval));
    on_ack;
    on_loss;
    age;
    reset;
  }
