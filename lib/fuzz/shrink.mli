(** Greedy structural minimization of failing programs.

    Each shrink step applies one local edit — delete a statement, splice a
    loop or guard away, pull a bound in to [1..2], collapse a subscript to
    [1] or a bare variable, or replace part of a right-hand side — then
    prunes empty containers.  {!minimize} keeps an edit whenever the
    caller's [keep] predicate still holds (typically "the oracle still
    reports the same kind of failure") and repeats until no edit survives or
    the check budget runs out.

    Edits may produce invalid programs (e.g. splicing an [if] away exposes
    an out-of-range subscript); the oracle reports those as a different
    failure kind, so [keep] rejects them and the shrinker simply moves on. *)

val minimize :
  keep:(Loopir.Ast.program -> bool) -> Loopir.Ast.program -> Loopir.Ast.program
(** Greedy fixpoint of [variants] under [keep].  [keep] is guaranteed to
    have accepted the result (or the input, if nothing shrank).  At most
    500 calls to [keep] are made. *)
