(** Content adaptation (the paper's title claim, API §2.1.4).

    "A simple but useful figure-of-merit for interactive content delivery
    is the end-to-end download latency; users typically wait no more than
    a few seconds" (§1).  The CM makes adaptation possible: a server can
    call [cm_query] when a request arrives and choose which encoding to
    serve — "a large color or smaller grey-scale image" — so the download
    meets a latency target.

    Workload: a client issues 5 sequential requests over paths of three
    different bandwidths.  A fixed server always sends the full-quality
    object; the adaptive server picks the largest of four encodings whose
    estimated delivery time fits a 1 s budget.  Because macroflow state
    persists between connections, the adaptive server is conservative only
    on the very first request. *)

type fetch = { latency_ms : float; bytes : int }

type row = {
  bandwidth_mbps : float;
  fixed : fetch list;  (** Per-request results, fixed server. *)
  adaptive : fetch list;  (** Per-request results, adaptive server. *)
}

val bandwidths : float list
(** The swept path bandwidths, bit/s. *)

val spec_of : float -> Cm_spec.Spec.t
(** [spec_of bw]: the [bw], 40 ms pipe. *)

val run : Exp_common.params -> row list
(** Sweep the three path bandwidths. *)

val print : row list -> unit
(** Print per-request latency and served size. *)
