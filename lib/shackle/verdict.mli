(** The one three-valued legality verdict, shared by the whole stack.

    {!Legality.probe_deps} (through {!Pipeline.probe}), the autotuner's
    pruner and the daemon's legal/probe replies all answer the same
    question — "is this shackle legal?" — with the same three outcomes,
    spelled by this module's constructors. *)

type witness = {
  dep : Dependence.Dep.t;
  level : int;  (** block-coordinate position at which the order breaks *)
}

type t =
  | Legal  (** every violation system refuted (exact) *)
  | Illegal of witness
      (** a violation system proved satisfiable (exact): the first one the
          scan reached, which stopped it *)
  | Unknown of string
      (** no proved violation, but the solver budget ran out before every
          system was refuted — conservatively treated as illegal by the
          boolean entry points.  The payload is the solver's reason
          (["fuel"] or ["deadline"]). *)

val is_legal : t -> bool
(** [true] iff {!Legal} — the conservative boolean collapse
    ([Unknown -> false]). *)

val to_string : t -> string
(** ["legal"], ["illegal"] or ["unknown:REASON"] — the wire spelling used
    by the daemon's verdict replies.  Witness payloads do not survive the
    round-trip. *)

val pp : Format.formatter -> t -> unit
(** Human rendering, with the witness of an [Illegal]. *)
