(** Figure 6 and Table 1: per-packet API overhead.

    Windowed streaming of [n] packets over a clean 100 Mbps link with the
    Pentium-III cost model, once per API:

    - [TCP/Linux] — native kernel TCP, delayed ACKs;
    - [TCP/CM] — TCP with CM congestion control, delayed ACKs;
    - [TCP/CM nodelay] — same without delayed ACKs (the paper's baseline
      for the UDP comparisons);
    - [Buffered] — congestion-controlled UDP socket: the app pays a recv
      and two gettimeofday per feedback packet;
    - [ALF] — request/callback: adds one cm_request ioctl per packet and
      an extra descriptor in the select set;
    - [ALF/noconnect] — adds one explicit cm_notify ioctl per packet.

    Reported: wall-clock microseconds per packet versus packet size
    (Fig. 6), and the measured per-packet boundary-operation counts for
    each API at 168-byte packets (Table 1). *)

type variant = Tcp_linux | Tcp_cm | Tcp_cm_nodelay | Buffered | Alf | Alf_noconnect

type point = { size : int; us_per_packet : float }

type table1_row = { t1_variant : variant; ops_per_packet : (string * float) list }
(** Measured boundary crossings per data packet. *)

val spec : Cm_spec.Spec.t
(** The 100 Mbit/s, 50 µs LAN pipe with 500-packet queues both ways
    (Fig. 6 and Table 1). *)

val run : Exp_common.params -> (variant * point list) list
(** The Fig. 6 sweep (packet sizes 64–1448 bytes). *)

val run_table1 : Exp_common.params -> table1_row list
(** Per-packet operation counts at 168-byte packets. *)

val print : (variant * point list) list -> unit
(** Print the Fig. 6 series. *)

val print_table1 : table1_row list -> unit
(** Print the Table 1 matrix. *)

val measure_variant :
  Exp_common.params -> variant -> size:int -> n:int -> float * Libcm.Ops.meter
(** One variant run: (µs per packet, the boundary-operation meter) —
    reused by the CM-protocol extension experiment. *)

type macro_stats = {
  m_us_per_packet : float;
  m_events : int;  (** Engine callbacks executed. *)
  m_final_clock : Cm_util.Time.t;  (** Virtual clock at the end of the run. *)
  m_fwd : Netsim.Link.stats;  (** Forward (a → b) link counters. *)
  m_rev : Netsim.Link.stats;  (** Reverse (b → a) link counters. *)
}
(** Simulator-level diagnostics of one Fig. 6 run. *)

val measure_macro : Exp_common.params -> variant -> size:int -> n:int -> macro_stats
(** One variant run reported as event-core diagnostics — the macro workload
    behind the determinism regression test (same seed ⇒ identical
    [macro_stats]). *)
