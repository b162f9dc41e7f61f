(** Analytic communication lower bounds for perfectly-shackled programs.

    This module derives, entirely in exact rational arithmetic, a lower
    bound on the number of cache misses any execution order of a loop
    nest's statement instances must incur at each level of a memory
    hierarchy.  Three independent arguments are combined (the bound is
    their maximum, each being individually sound):

    - {b Compulsory}: every distinct memory line touched by the trace is
      cold-missed at least once at {e every} level of the hierarchy,
      because caches start empty and the first access to a line cannot
      be forwarded (forwarding requires a back-to-back repeat of the
      same address, which implies the line was already touched).  The
      count of distinct elements is itself lower-bounded per array as
      [ceil (instances / fiber)] where [fiber] bounds the number of loop
      instances that can share one element — the product of the window
      ranges of the loops outside the reference's support, valid
      whenever the access matrix restricted to the support has full
      column rank (the map is then injective on the support
      coordinates).

    - {b Windowed} (only when a {!Shackle.Spec.t} is supplied): the
      generated blocked code iterates block coordinates outermost, so
      execution is partitioned in {e time} into one contiguous segment
      per block-coordinate prefix value.  In each segment the cache can
      initially hold at most [lv_lines] lines, so the segment incurs at
      least [lines_touched - lv_lines] misses.  Summing over segments
      (any subset of them — a truncated sum is still a lower bound)
      gives the per-candidate bound that separates block sizes: small
      blocks touch little per segment but pay the [- lv_lines] slack
      many times, large blocks overflow the cache inside one segment.

    - {b HBL phase bound} (Hong–Kung partitioning with a
      Hölder/Brascamp–Lieb iteration cap, after Dinh–Demmel): cut the
      miss sequence of level [l] into phases of [lv_lines] misses each.
      During a phase at most [lv_capacity + lv_lines * lv_line = 2M]
      elements are available, so by the discrete HBL inequality at most
      [prod_j (2M)^(y_j) * prod_i (R_i)^(z_i)] statement instances can
      execute, for any fractional cover [(y, z)] of the loop directions
      by reference supports ([y]) and plain loop extents ([z]).  The
      cover is found by exact vertex enumeration of the covering LP;
      only references whose support submatrix has full column rank
      participate (their footprint equals the coordinate projection).
      This argument is valid for {e any} execution order, so it applies
      to every candidate unchanged.

    All three arguments count misses of the {e probe stream without
    forwarding}; per-level miss counts are forwarding-invariant (a
    forwarded access would have been an L1 hit to the most-recently-used
    line, leaving both counters and replacement state untouched), so the
    bounds transfer to forwarding-enabled simulations as well.

    Nothing here depends on the concrete machine model: callers convert
    a cache hierarchy into {!level} records (see {!levels_of}) in
    whatever element units they use. *)

type level = {
  lv_name : string;  (** label used in reports, e.g. ["L1"] *)
  lv_line : int;  (** elements per cache line *)
  lv_capacity : int;
      (** elements resident in levels 1..this one combined (cumulative):
          a line absent from every level up to and including this one
          must miss here *)
  lv_lines : int;  (** [lv_capacity / lv_line] — cumulative line count *)
}

val levels_of : line_elems:int -> (string * int) list -> level list
(** [levels_of ~line_elems caps] builds the cumulative {!level} list
    from per-level [(name, capacity_in_elements)] pairs ordered from
    the level closest to the processor outward.  All levels share one
    line size, as both reference machines do. *)

(** Exact rational linear programming by vertex enumeration — small
    systems only (a handful of variables), as arise from per-statement
    covering LPs. *)
module Lp : sig
  val optimize :
    maximize:bool ->
    dim:int ->
    objective:Ratio.t array ->
    (Ratio.t array * Ratio.t) list ->
    (Ratio.t * Ratio.t array) option
  (** [optimize ~maximize ~dim ~objective rows] optimizes
      [objective . x] over the polyhedron [{ x | a . x <= b }] for each
      [(a, b)] in [rows].  Every [dim]-subset of rows is solved as an
      equality system; feasible solutions are compared exactly.  Returns
      [None] when no subset yields a feasible vertex (infeasible, or a
      non-pointed feasible region).  The optimum of a bounded LP over a
      pointed region is always attained at such a vertex. *)
end

type stmt_info = {
  si_label : string;  (** statement label *)
  si_depth : int;  (** number of enclosing loops *)
  si_iterations : int;  (** exact instance count at the given parameters *)
  si_sigma : Ratio.t;
      (** optimal HBL exponent: instances executable with [D] data
          available grow as [D^sigma] (matmul: 3/2) *)
}

type t
(** The communication analysis of one (program, optional spec,
    parameter binding) triple. *)

type prepared
(** The spec-free half of an analysis: everything that depends on the
    (program, parameter binding) pair only, shared by every spec
    analyzed from it. *)

val prepare : params:(string * int) list -> Loopir.Ast.program -> prepared
(** Computes the order-independent quantities once: per-statement
    iteration counts, extents, reference supports, the covering LP and
    the whole-trace distinct-data bound.  Raises
    {!Loopir.Domain.Not_affine} on non-affine programs and [Failure] if
    [params] misses a program parameter. *)

val analyze_prepared : ?spec:Shackle.Spec.t -> prepared -> t
(** Adds the spec half: when [spec] is given, the per-window
    distinct-data bounds for every block-coordinate prefix of the spec
    (none when a factor chooses no reference of some statement).  A
    raise here concerns this spec only: the [prepared] value stays
    usable for other specs. *)

val analyze :
  ?spec:Shackle.Spec.t ->
  params:(string * int) list ->
  Loopir.Ast.program ->
  t
(** [analyze_prepared ?spec (prepare ~params prog)]: one spec's
    analysis, when no other spec shares the preparation. *)

val stmts : t -> stmt_info list
val distinct : t -> int
(** Lower bound on the number of distinct elements the trace touches. *)

val misses : t -> level -> int
(** [misses t lv] — the headline result: no execution of the analyzed
    program (reordered by the analyzed spec or not) incurs fewer misses
    at [lv].  Maximum of the three arguments above; at least 1 whenever
    the program touches memory at all. *)

type level_bound = {
  lb_level : string;
  lb_compulsory : int;  (** distinct-lines cold-miss bound *)
  lb_windowed : int;  (** best block-coordinate-prefix partition bound *)
  lb_hbl : int;  (** best per-statement phase bound *)
  lb_misses : int;  (** max of the three — equals {!misses} *)
}

val level_bounds : t -> level list -> level_bound list
(** Per-level decomposition of {!misses}, for reports. *)
