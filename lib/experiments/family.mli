(** The experiment families: the one registry that [cm_expt]'s
    per-family subcommands, [all], [trace], [report] and [spec] iterate. *)

type t = {
  name : string;  (** The [cm_expt] subcommand and [--expt] name. *)
  doc : string;
  run : Exp_common.params -> unit;  (** Run the family and print its tables / JSON. *)
  subruns : (string * (Exp_common.params -> unit)) list;
      (** The named workloads [trace] and [report] capture: the family's own
          run, or smaller probes (fig6, fig7) and the defense-heavy case of
          the fault families. *)
  specs : (string * Cm_spec.Spec.t) list;
      (** Sub-spec name → spec-DSL source; empty for handwritten families. *)
}

val all : t list
(** Every family, in [cm_expt all] order. *)

val find : string -> t option
