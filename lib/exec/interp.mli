(** A compiled interpreter for the loop IR.

    Programs are compiled to closures over an integer frame (one slot per
    variable name), so running blocked code on realistic sizes is cheap
    enough to drive the memory-hierarchy simulator.  Each array reference
    compiles to an [int] offset into an array fixed at compile time: a
    plain-variable subscript (possibly plus or minus a constant) is read
    straight from its frame slot (with no match per evaluation when both
    subscripts of a 2-D reference are such slots), the layout's strides
    come from the store, and an index failing the inline range test is
    handed to {!Store.offset}, which raises its usual [Invalid_argument].

    There are two compiles.  The value path ({!run}, {!prepare}) computes
    every element: right-hand sides compile to code over a per-statement
    [float array] scratch, so values stay unboxed and executing a compiled
    program allocates nothing per statement instance.  Every array element
    access can be reported to a {!Trace.sink} with its element address;
    reads are reported left-to-right, then the write — the access order
    the paper's machine would perform.  The sink is matched once when the
    program is compiled, so the default [No_trace] path pays nothing per
    access; [Record] appends each packed word to the recorder's current
    chunk in place and calls into {!Trace} only when the chunk is full:
    the default build compiles each library module with [-opaque], so
    {!Trace.emit} would be an indirect call per access.

    The address-only path ({!addresses}) computes no value: it records
    the same words in the same chunks, returns the same flop count (taken
    from the shape of each right-hand side) and raises the same
    [Invalid_argument] at the same access, which is all a cache simulation
    needs.  It also runs strided innermost loops whole: a loop whose body
    holds only statements, possibly under one conjunction of guards
    affine in the loop variable (which narrow its range to the interval
    where they hold), and whose every subscript is a frame variable plus
    or minus a constant, checks every reference at the two ends of its
    range (such subscripts are monotone in the loop variable, so the ends
    decide every iteration), then appends each word and adds a
    per-reference step, leaving the loop variable's slot at the last value
    as the iterations would.  A range whose ends fail, or that runs fewer
    than three trips, runs iteration by iteration, which raises where the
    value path would. *)

val run :
  ?sink:Trace.sink ->
  Store.t ->
  Loopir.Ast.program ->
  params:(string * int) list ->
  int
(** Executes the program in place on the store; returns the number of
    floating-point operations performed (adds, subs, muls, divs, sqrts,
    negations).  [sink] defaults to [Trace.No_trace]. *)

val addresses :
  Store.t ->
  Trace.recorder ->
  Loopir.Ast.program ->
  params:(string * int) list ->
  int
(** The address-only execution: appends to the recorder exactly the words
    [run ~sink:(Trace.Record r)] would, and returns the same flop count,
    reading and writing no element.  The store needs only its layout
    ({!Store.plan}).
    @raise Invalid_argument where {!run} would, on the same access. *)

type prepared
(** A compiled program whose parameter bindings can be rebound cheaply
    between invocations — the block scheduler compiles each task body once
    per worker and re-invokes it with fresh block-coordinate bindings.
    Single-domain mutable state (frame, flop counter): one [prepared] per
    worker. *)

val prepare : ?sink:Trace.sink -> Store.t -> Loopir.Ast.program -> prepared
(** The value path's compile. *)

val invoke : prepared -> params:(string * int) list -> int
(** Runs the compiled body under the given bindings (parameters and any
    free loop variables); returns the flops performed by this invocation
    alone.  Slots not rebound keep their previous values, so callers must
    bind every free variable on every call.
    @raise Invalid_argument on a binding for a name the program never
    mentions — a silent drop here turns a caller's typo into a stale
    previous value. *)
