(** Solver-free entailment over index expressions.

    The staged simplifier ({!Stages}) and parametric specialization must not
    consult Omega — one solver derivation per (kernel, spec) has to cover an
    entire sweep of sizes.  This module proves one-sided facts about
    {!Expr.t} values purely structurally: linearize to (constant, variable
    coefficients, non-affine atoms), cancel structurally identical atoms,
    case-split [Min]/[Max] atoms (their value is always one of the arms),
    bound division atoms by their worst-case rational envelope, and
    eliminate residual variables innermost-first against the supplied loop
    bounds.  All answers are fueled and conservative: [false] means "not
    proved", never "disproved". *)

type fact = { var : string; lo : Expr.t option; hi : Expr.t option }
(** One enclosing binding: [lo <= var <= hi] on every reached iteration
    (either side may be unknown).  Order the list outermost-first, the way
    loops nest — a bound may only mention variables of earlier facts. *)

val fact : ?lo:Expr.t -> ?hi:Expr.t -> string -> fact

val le : fact list -> Expr.t -> Expr.t -> bool
(** [le facts a b] — is [a <= b] for every valuation consistent with
    [facts]?  A fixed fuel of 2048 case splits bounds each question;
    exhaustion answers [false]. *)

val ge : fact list -> Expr.t -> Expr.t -> bool
val eq : fact list -> Expr.t -> Expr.t -> bool

val affine_delta_in :
  var:string -> Expr.t -> Expr.t -> (int * int) option
(** [affine_delta_in ~var a b] is [Some (c, d)] when [a - b = c*var + d]
    exactly (after atom cancellation) with no other variables or atoms —
    the condition under which a [Min (a, b)] arm flips at a computable
    threshold of [var] ({!Stages} min/max peeling). *)
