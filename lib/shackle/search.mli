(** The candidate-array set of the Section 8 shackle search ("implement a
    search method that enumerates over plausible data shackles, evaluates
    each one and picks the best").  The search itself — enumeration,
    legality, Theorem-2 pruning and simulation-backed ranking — lives in
    [lib/tune]. *)

val default_arrays : Loopir.Ast.program -> string list
(** Rank-2 arrays referenced by every statement — exactly those that can be
    shackled with [Blocking.blocks_2d] without dummy references.  The
    default candidate-array set of the autotuner. *)

val singles :
  Loopir.Ast.program ->
  arrays:string list ->
  blockings:(string -> Blocking.t list) ->
  Spec.t list
(** The single-factor lattice: for each of [arrays], for each of its
    [blockings], one factor per way of choosing a reference to the array
    from every statement ({!Legality.enumerate_choices}), in that order. *)
