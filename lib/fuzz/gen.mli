(** Random generation of analysable affine loop-nest programs (the paper's
    program class) and of small bounded constraint systems.

    Generated programs are valid by construction:

    - loops range inside [\[1, N\]] (possibly triangular: a bound may be an
      outer loop variable, [2], or [N - 1]),
    - subscripts are affine in the enclosing loop variables with small
      coefficients, and any subscript whose value could leave [\[1, N\]] is
      protected by an affine guard, so the interpreter never reads or
      writes out of range for any [N >= 2],
    - statement labels are [S1, S2, ...] and ids [0, 1, ...] in textual
      order, exactly what the parser reconstructs,
    - right-hand sides use only [+], [-], [*] and small positive constants,
      so results stay finite and comparisons tolerate reassociation.

    The first declared array ([A]) is always rank 2 and almost every
    statement references it, so data shackles of [A] usually exist. *)

val program : ?quick:bool -> Rng.t -> Loopir.Ast.program
(** A random program: 1-3 arrays (ranks 1-3), nests up to depth 3 (perfect
    and imperfect), triangular bounds, guards, up to 6 statements (4 with
    [~quick:true]). *)

val system : Rng.t -> dim:int -> Polyhedra.System.t
(** A random conjunction of 1-4 linear constraints with coefficients in
    [\[-3, 3\]], constants in [\[-6, 6\]] (about a quarter are equalities),
    {e plus} box bounds [-4 <= xi <= 4] for every variable — so
    brute-force enumeration over the same box is a complete decision
    procedure to compare the Omega test against.  [dim] at most 6. *)
