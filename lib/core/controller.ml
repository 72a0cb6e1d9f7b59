(* A controller family's operations over its state ['s], built once per
   factory (see controller.mli for each one's contract). *)
type 's ops = {
  name : string;
  cwnd : 's -> int;
  ssthresh : 's -> int;
  in_slow_start : 's -> bool;
  on_ack : 's -> int -> unit;
  on_loss : 's -> Cm_types.loss_mode -> unit;
  age : 's -> unit;
  reset : 's -> unit;
}

(* An instance is its state and the factory's shared operations over it:
   one constructor block and one small state record per macroflow, which
   the CM keeps per destination for the whole run. *)
type t = T : 's ops * 's -> t

type factory = mtu:int -> t

let name (T (o, _)) = o.name
let cwnd (T (o, s)) = o.cwnd s
let ssthresh (T (o, s)) = o.ssthresh s
let in_slow_start (T (o, s)) = o.in_slow_start s
let on_ack (T (o, s)) ~nbytes = o.on_ack s nbytes
let on_loss (T (o, s)) mode = o.on_loss s mode
let age (T (o, s)) = o.age s
let reset (T (o, s)) = o.reset s

(* effectively infinite: the first loss sets the real threshold *)
let initial_ssthresh = 1 lsl 30

type aimd_state = {
  a_mtu : int;
  a_iw : int;
  mutable a_cwnd : int;
  mutable a_ssthresh : int;
  (* accumulator for byte-counted congestion avoidance: grow by one MTU
     per cwnd bytes acked *)
  mutable acked_accum : int;
}

let aimd ?(initial_window_pkts = 1) ?(max_window = 4 * 1024 * 1024) () =
  let clamp s = s.a_cwnd <- Stdlib.min max_window (Stdlib.max s.a_mtu s.a_cwnd) in
  let on_ack s nbytes =
    if nbytes > 0 then begin
      if s.a_cwnd < s.a_ssthresh then
        (* slow start with pure byte counting: the window grows by what the
           receiver actually absorbed.  Feedback batches (Fig. 10) produce
           correspondingly large single-step openings. *)
        s.a_cwnd <- s.a_cwnd + nbytes
      else begin
        s.acked_accum <- s.acked_accum + nbytes;
        if s.acked_accum >= s.a_cwnd then begin
          s.acked_accum <- s.acked_accum - s.a_cwnd;
          s.a_cwnd <- s.a_cwnd + s.a_mtu
        end
      end;
      clamp s
    end
  in
  let on_loss s mode =
    (match mode with
    | Cm_types.No_loss -> ()
    | Cm_types.Ecn_echo | Cm_types.Transient ->
        s.a_ssthresh <- Stdlib.max (s.a_cwnd / 2) (2 * s.a_mtu);
        s.a_cwnd <- s.a_ssthresh
    | Cm_types.Persistent ->
        s.a_ssthresh <- Stdlib.max (s.a_cwnd / 2) (2 * s.a_mtu);
        s.a_cwnd <- s.a_mtu);
    s.acked_accum <- 0;
    clamp s
  in
  let age s =
    (* stale feedback: decay toward the initial window without touching
       ssthresh, so slow start reopens the window once feedback resumes *)
    s.a_cwnd <- Stdlib.max s.a_iw (s.a_cwnd / 2);
    s.acked_accum <- 0
  in
  let reset s =
    s.a_cwnd <- s.a_iw;
    s.a_ssthresh <- initial_ssthresh;
    s.acked_accum <- 0
  in
  let ops =
    {
      name = "aimd";
      cwnd = (fun s -> s.a_cwnd);
      ssthresh = (fun s -> s.a_ssthresh);
      in_slow_start = (fun s -> s.a_cwnd < s.a_ssthresh);
      on_ack;
      on_loss;
      age;
      reset;
    }
  in
  fun ~mtu ->
    if mtu <= 0 then invalid_arg "Controller.aimd: mtu must be positive";
    let iw = initial_window_pkts * mtu in
    T
      ( ops,
        { a_mtu = mtu; a_iw = iw; a_cwnd = iw; a_ssthresh = initial_ssthresh; acked_accum = 0 }
      )

(* binomial increase and decrease scale factors *)
let alpha = 1.0
let beta = 0.5

(* All floats, so OCaml stores the record flat: a window update writes in
   place instead of boxing a float. *)
type binomial_state = {
  b_mtu : float;
  b_iw : float;
  mutable b_cwnd : float;
  mutable b_ssthresh : float;
}

let binomial ~k ~l ?(initial_window_pkts = 1) ?(max_window = 4 * 1024 * 1024) () =
  let ssthresh_init = float_of_int initial_ssthresh in
  let clamp s = s.b_cwnd <- Float.min (float_of_int max_window) (Float.max s.b_mtu s.b_cwnd) in
  let on_ack s nbytes =
    if nbytes > 0 then begin
      if s.b_cwnd < s.b_ssthresh then s.b_cwnd <- s.b_cwnd +. float_of_int nbytes
      else begin
        (* increase of alpha·mtu^(k+1)/cwnd^k per cwnd bytes acked,
           i.e. proportionally per ack *)
        let per_window = alpha *. (s.b_mtu ** (k +. 1.)) /. (s.b_cwnd ** k) in
        s.b_cwnd <- s.b_cwnd +. (per_window *. float_of_int nbytes /. s.b_cwnd)
      end;
      clamp s
    end
  in
  let on_loss s mode =
    (match mode with
    | Cm_types.No_loss -> ()
    | Cm_types.Ecn_echo | Cm_types.Transient ->
        let decrease = beta *. (s.b_cwnd ** l) *. (s.b_mtu ** (1. -. l)) in
        s.b_ssthresh <- Float.max (s.b_cwnd -. decrease) (2. *. s.b_mtu);
        s.b_cwnd <- s.b_ssthresh
    | Cm_types.Persistent ->
        let decrease = beta *. (s.b_cwnd ** l) *. (s.b_mtu ** (1. -. l)) in
        s.b_ssthresh <- Float.max (s.b_cwnd -. decrease) (2. *. s.b_mtu);
        s.b_cwnd <- s.b_mtu);
    clamp s
  in
  let ops =
    {
      name = Printf.sprintf "binomial(k=%g,l=%g)" k l;
      cwnd = (fun s -> int_of_float s.b_cwnd);
      ssthresh = (fun s -> int_of_float s.b_ssthresh);
      in_slow_start = (fun s -> s.b_cwnd < s.b_ssthresh);
      on_ack;
      on_loss;
      age = (fun s -> s.b_cwnd <- Float.max s.b_iw (s.b_cwnd /. 2.));
      reset =
        (fun s ->
          s.b_cwnd <- s.b_iw;
          s.b_ssthresh <- ssthresh_init);
    }
  in
  fun ~mtu ->
    if mtu <= 0 then invalid_arg "Controller.binomial: mtu must be positive";
    let iw = float_of_int (initial_window_pkts * mtu) in
    T (ops, { b_mtu = float_of_int mtu; b_iw = iw; b_cwnd = iw; b_ssthresh = ssthresh_init })

let iiad () = binomial ~k:1.0 ~l:0.0 ()
let sqrt_ctl () = binomial ~k:0.5 ~l:0.5 ()

type equation_state = {
  e_mtu : int;
  e_iw : int;
  mutable e_cwnd : int;
  mutable bytes_since_loss : int;
  interval : Cm_util.Ewma.t; (* loss-event interval, bytes *)
}

let equation ?(initial_window_pkts = 1) ?(max_window = 4 * 1024 * 1024) () =
  (* TFRC-style equation-based control: estimate the loss-event interval
     (bytes acknowledged between congestion events, EWMA-smoothed) and set
     the window from the TCP-friendly formula W = MTU * sqrt(3 / (2 p))
     with p = MTU / interval.  Before the first loss event the controller
     slow starts like AIMD. *)
  let clamp s w = Stdlib.min max_window (Stdlib.max s.e_mtu w) in
  let equation_window s =
    if not (Cm_util.Ewma.initialized s.interval) then float_of_int max_window
    else begin
      let fmtu = float_of_int s.e_mtu in
      let p = fmtu /. Float.max fmtu (Cm_util.Ewma.value s.interval) in
      fmtu *. Float.sqrt (1.5 /. p)
    end
  in
  let on_ack s nbytes =
    if nbytes > 0 then begin
      s.bytes_since_loss <- s.bytes_since_loss + nbytes;
      if Cm_util.Ewma.initialized s.interval then begin
        (* the current loss-free run also informs the estimate: allow the
           window to creep up as the interval outgrows its average *)
        let fmtu = float_of_int s.e_mtu in
        let optimistic =
          Float.max (Cm_util.Ewma.value s.interval) (float_of_int s.bytes_since_loss)
        in
        let p = fmtu /. Float.max fmtu optimistic in
        s.e_cwnd <- clamp s (int_of_float (fmtu *. Float.sqrt (1.5 /. p)))
      end
      else s.e_cwnd <- clamp s (s.e_cwnd + nbytes)
    end
  in
  let on_loss s mode =
    match mode with
    | Cm_types.No_loss -> ()
    | Cm_types.Ecn_echo | Cm_types.Transient ->
        Cm_util.Ewma.update_int s.interval s.bytes_since_loss;
        s.bytes_since_loss <- 0;
        s.e_cwnd <- clamp s (int_of_float (equation_window s))
    | Cm_types.Persistent ->
        (* persistent congestion: a burst of loss events *)
        Cm_util.Ewma.update_int s.interval (s.bytes_since_loss / 4);
        s.bytes_since_loss <- 0;
        s.e_cwnd <- clamp s (int_of_float (equation_window s /. 2.))
  in
  let age s =
    s.e_cwnd <- clamp s (Stdlib.max s.e_iw (s.e_cwnd / 2));
    s.bytes_since_loss <- 0
  in
  let reset s =
    s.e_cwnd <- s.e_iw;
    s.bytes_since_loss <- 0;
    Cm_util.Ewma.reset s.interval
  in
  let ops =
    {
      name = "equation";
      cwnd = (fun s -> s.e_cwnd);
      ssthresh = (fun _ -> max_window);
      in_slow_start = (fun s -> not (Cm_util.Ewma.initialized s.interval));
      on_ack;
      on_loss;
      age;
      reset;
    }
  in
  fun ~mtu ->
    if mtu <= 0 then invalid_arg "Controller.equation: mtu must be positive";
    let iw = initial_window_pkts * mtu in
    T
      ( ops,
        {
          e_mtu = mtu;
          e_iw = iw;
          e_cwnd = iw;
          bytes_since_loss = 0;
          interval = Cm_util.Ewma.create ~gain:0.25;
        } )
