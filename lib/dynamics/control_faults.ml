open Cm_util
open Eventsim
open Netsim

(* Seeded fault injection for *control* traffic: a host receive filter
   that drops / duplicates / delays (and, via jitter, reorders) only the
   packets a classifier selects — in practice Cmproto feedback and
   control packets — while every data packet passes untouched.  This is
   the adversary the feedback-plane defenses are built against: the CM's
   congestion picture degraded without the network under measurement
   changing at all.

   Replays re-enter the host through [Host.deliver], so they traverse
   the full filter chain (and are consumed by whatever agent owns them);
   a per-injector [replaying] flag makes the injector transparent to its
   own replays.  Install the injector *before* the agent filters that
   consume control traffic — filters run in registration order, and a
   consuming filter ahead of the injector would hide the traffic. *)

type profile = { drop : float; dup : float; delay : Time.span; jitter : Time.span }

let check_profile ~ctx { drop; dup; delay; jitter } =
  let prob what p =
    if Float.is_nan p || p < 0. || p > 1. then
      invalid_arg (ctx ^ ": " ^ what ^ " probability must be in [0,1]")
  in
  prob "drop" drop;
  prob "dup" dup;
  if delay < 0 || jitter < 0 then invalid_arg (ctx ^ ": negative control delay/jitter")

type counters = { matched : int; passed : int; dropped : int; duplicated : int; delayed : int }

type t = {
  host : Host.t;
  classify : Packet.t -> bool;
  mutable active : (profile * Rng.t) option;
  mutable engagement : int; (* stamps windows so a stale clear is inert *)
  mutable replaying : bool;
  mutable matched : int;
  mutable passed : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable delayed : int;
}

let counters t : counters =
  {
    matched = t.matched;
    passed = t.passed;
    dropped = t.dropped;
    duplicated = t.duplicated;
    delayed = t.delayed;
  }

let replay t pkt =
  t.replaying <- true;
  Host.deliver t.host pkt;
  t.replaying <- false

let engine t = Host.engine t.host

let apply t profile rng pkt =
  if profile.drop > 0. && Rng.bernoulli rng profile.drop then begin
    t.dropped <- t.dropped + 1;
    None
  end
  else begin
    if profile.dup > 0. && Rng.bernoulli rng profile.dup then begin
      t.duplicated <- t.duplicated + 1;
      (* the copy re-enters delivery as its own event, after this one *)
      Engine.post (engine t) 0 (fun () -> replay t pkt)
    end;
    if profile.delay > 0 || profile.jitter > 0 then begin
      t.delayed <- t.delayed + 1;
      let extra =
        profile.delay + if profile.jitter > 0 then Rng.uniform_span rng profile.jitter else 0
      in
      ignore
        (Engine.schedule_after (engine t) extra (fun () -> replay t pkt));
      None
    end
    else begin
      t.passed <- t.passed + 1;
      Some pkt
    end
  end

let install host ~classify =
  let t =
    {
      host;
      classify;
      active = None;
      engagement = 0;
      replaying = false;
      matched = 0;
      passed = 0;
      dropped = 0;
      duplicated = 0;
      delayed = 0;
    }
  in
  Host.add_rx_filter host (fun pkt ->
      if t.replaying || not (t.classify pkt) then Some pkt
      else begin
        t.matched <- t.matched + 1;
        match t.active with
        | None ->
            t.passed <- t.passed + 1;
            Some pkt
        | Some (profile, rng) -> apply t profile rng pkt
      end);
  t

let engage t ~rng ~at ~profile ~duration =
  check_profile ~ctx:"Control_faults.engage" profile;
  if duration < 0 then invalid_arg "Control_faults.engage: negative duration";
  let eng = engine t in
  let arm () =
    t.engagement <- t.engagement + 1;
    let stamp = t.engagement in
    t.active <- Some (profile, rng);
    if duration > 0 then
      ignore
        (Engine.schedule_after eng duration (fun () ->
             if t.engagement = stamp then t.active <- None))
  in
  if at <= Engine.now eng then arm () else ignore (Engine.schedule_at eng at arm)

let active t = Option.is_some t.active
