(** The staged simplifier: named, composable program rewrites.

    Each {!stage} is a whole-program transformation carrying an explicit
    [obligation] — the one-paragraph argument for why its output is
    equivalent to its input.  All stages are trace-preserving by
    construction: guards and bounds contain no array accesses and no stage
    reorders, drops or duplicates a statement instance, so the access trace
    (and every simulated cache metric) is bit-identical across a pipeline
    run.  No stage consults Omega; entailment goes through the structural
    prover in {!Entail}, so running a pipeline is pure computation. *)

type stage = {
  name : string;        (** stable CLI-facing identifier, e.g. ["guard-entail"] *)
  obligation : string;  (** why output ≡ input, stated as an invariant *)
  apply : Ast.program -> Ast.program;
}

val run : stage list -> Ast.program -> Ast.program
(** Apply the stages left to right. *)

val fold_expr : Expr.t -> Expr.t
(** The sanctioned expression simplifier ([Expr.simplify]); derivation code
    routes through this so all simplification lives behind the stage
    module. *)

(** {2 Registry and pipelines} *)

val all : stage list
(** Every stage, by name:
    - [constant-fold] folds every expression with {!fold_expr};
    - [bound-tighten] drops max (min) arguments of loop bounds that
      {!Entail} proves dominated by another argument under the enclosing
      bounds;
    - [guard-entail] removes guards {!Entail} proves implied by the
      enclosing loop bounds, splicing empty [If]s into their parent;
    - [guard-hoist] moves statement guards that do not mention a loop's
      variable out of that loop (codegen emits them innermost);
    - [minmax-peel] splits a constant-range loop at the threshold where a
      [Min]/[Max] arm order flips (arm difference affine in the loop
      variable alone), and resolves the atom to the winning arm on each
      side;
    - [collapse-degenerate] substitutes away loops whose folded bounds
      coincide (single-iteration ranges). *)

val names : unit -> string list
val by_name : string -> stage option

val of_names : string list -> stage list
(** @raise Invalid_argument on an unknown stage name (message lists the
    known ones) — the [--stages] flag parser. *)

val tighten_pipeline : stage list
(** The post-pass [Codegen.Tighten] runs after emitting blocked code:
    [guard-hoist], then [collapse-degenerate]. *)

val naive_pipeline : stage list
(** [constant-fold] only: Figure-5 membership guards stay recognizable. *)

val subst_params : params:(string * int) list -> stage
(** Substitute the given parameter bindings as constants throughout the
    body; the program's [params] list is kept so prepared frames still
    reserve their slots. *)

val specialize : params:(string * int) list -> Ast.program -> Ast.program
(** [subst_params] followed by the aggressive pipeline for a program whose
    parameters are constants: fold, tighten, entail, peel, fold/tighten/
    entail again, collapse, hoist.  This is the per-size instantiation step
    of {!Pipeline.specialize}: entailed guards vanish and inner loops
    become straight-line index arithmetic, while the access trace stays
    bit-identical to the symbolic program's. *)
