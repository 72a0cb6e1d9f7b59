open Cm_util
open Eventsim
open Netsim

type loss_spec =
  | Loss_off
  | Loss_bernoulli of float
  | Loss_gilbert_elliott of Loss.ge

type action =
  | Set_bandwidth of float
  | Ramp_bandwidth of { to_bps : float; over : Time.span; steps : int }
  | Set_loss of loss_spec
  | Loss_burst of { spec : loss_spec; duration : Time.span }
  | Outage of Time.span
  | Flap of { down : Time.span; up : Time.span; cycles : int }
  | Delay_spike of { extra : Time.span; jitter : Time.span; duration : Time.span }
  | Control_fault of { profile : Control_faults.profile; duration : Time.span }

type step = { at : Time.t; target : string; action : action }
type t = { name : string; steps : step list }

let check_prob ~what p =
  if Float.is_nan p || p < 0. || p > 1. then
    invalid_arg (what ^ ": probability must be in [0,1]")

let validate_action ~ctx = function
  | Set_bandwidth bw ->
      if bw <= 0. then invalid_arg (ctx ^ ": bandwidth must be positive")
  | Ramp_bandwidth { to_bps; over; steps } ->
      if to_bps <= 0. then invalid_arg (ctx ^ ": ramp target must be positive");
      if over < 0 then invalid_arg (ctx ^ ": negative ramp duration");
      if steps <= 0 then invalid_arg (ctx ^ ": ramp steps must be positive")
  | Set_loss (Loss_bernoulli p) -> check_prob ~what:(ctx ^ ": loss") p
  | Set_loss (Loss_off | Loss_gilbert_elliott _) -> ()
  | Loss_burst { spec; duration } ->
      (match spec with
      | Loss_bernoulli p -> check_prob ~what:(ctx ^ ": burst loss") p
      | Loss_off | Loss_gilbert_elliott _ -> ());
      if duration < 0 then invalid_arg (ctx ^ ": negative burst duration")
  | Outage d -> if d < 0 then invalid_arg (ctx ^ ": negative outage duration")
  | Flap { down; up; cycles } ->
      if down < 0 || up < 0 then invalid_arg (ctx ^ ": negative flap period");
      if cycles <= 0 then invalid_arg (ctx ^ ": flap cycles must be positive")
  | Delay_spike { extra; jitter; duration } ->
      if extra < 0 || jitter < 0 then invalid_arg (ctx ^ ": negative delay/jitter");
      if duration < 0 then invalid_arg (ctx ^ ": negative spike duration")
  | Control_fault { profile; duration } ->
      Control_faults.check_profile ~ctx profile;
      if duration <= 0 then invalid_arg (ctx ^ ": control fault needs a positive duration")

let make ~name steps =
  List.iter
    (fun { at; target; action } ->
      let ctx = Printf.sprintf "Scenario %S, step on %S" name target in
      if at < 0 then invalid_arg (ctx ^ ": negative time");
      validate_action ~ctx action)
    steps;
  { name; steps }

let validate ~links ?(controls = []) t =
  List.iter
    (fun { target; action; _ } ->
      match action with
      | Control_fault _ ->
          if not (List.mem target controls) then
            invalid_arg
              (Printf.sprintf
                 "Scenario %S: control fault targets %S, which has no control-fault injector \
                  (have: %s)"
                 t.name target (String.concat ", " controls))
      | _ ->
          if not (List.mem target links) then
            invalid_arg
              (Printf.sprintf "Scenario %S: unknown topology element %S (have: %s)" t.name
                 target (String.concat ", " links)))
    t.steps

(* the horizon of the *disruptions* — bounded faults whose clearance a
   recovery experiment can measure against.  Persistent renegotiations
   (Set_bandwidth, Set_loss, Ramp_bandwidth) never clear, so they are not
   counted. *)
let fault_window t =
  let windows =
    List.filter_map
      (fun { at; action; _ } ->
        match action with
        | Outage d -> Some (at, Time.add at d)
        | Flap { down; up; cycles } ->
            Some (at, Time.add at (((down + up) * cycles) - up))
        | Loss_burst { duration; _ } -> Some (at, Time.add at duration)
        | Delay_spike { duration; _ } -> Some (at, Time.add at duration)
        | Control_fault { duration; _ } -> Some (at, Time.add at duration)
        | Set_bandwidth _ | Ramp_bandwidth _ | Set_loss _ -> None)
      t.steps
  in
  match windows with
  | [] -> None
  | (s0, e0) :: rest ->
      Some (List.fold_left (fun (s, e) (s', e') -> (Time.min s s', Time.max e e')) (s0, e0) rest)

let model_of_spec rng = function
  | Loss_off -> fun () -> false
  | Loss_bernoulli p -> Loss.bernoulli rng ~p
  | Loss_gilbert_elliott g -> Loss.gilbert_elliott rng g

let compile engine ~rng ~links ?(controls = []) t =
  validate ~links:(List.map fst links) ~controls:(List.map fst controls) t;
  let link name = List.assoc name links in
  (* each stochastic step gets its own stream, split in declaration order:
     the sampled values depend only on the scenario and the seed, never on
     how steps interleave at run time *)
  List.iter
    (fun { at; target; action } ->
      match action with
      | Control_fault { profile; duration } ->
          Control_faults.engage (List.assoc target controls) ~rng:(Rng.split rng) ~at ~profile
            ~duration
      | _ ->
      let l = link target in
      match action with
      | Set_bandwidth bw -> Faults.bandwidth_steps engine l [ (at, bw) ]
      | Ramp_bandwidth { to_bps; over; steps } ->
          Faults.bandwidth_ramp engine l ~at ~to_bps ~over ~steps
      | Set_loss spec ->
          let model = model_of_spec (Rng.split rng) spec in
          let apply () = Link.set_loss_model l (Some model) in
          if at <= Engine.now engine then apply ()
          else ignore (Engine.schedule_at engine at apply)
      | Loss_burst { spec; duration } ->
          let model = model_of_spec (Rng.split rng) spec in
          Faults.loss_burst engine l ~at ~model ~duration
      | Outage duration -> Faults.outage engine l ~at ~duration
      | Flap { down; up; cycles } -> Faults.flap engine l ~at ~down ~up ~cycles
      | Delay_spike { extra; jitter; duration } ->
          Faults.delay_spike engine l ~at ~extra ~jitter ~duration ()
      | Control_fault _ -> assert false (* handled above *))
    t.steps
