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
    program allocates nothing per statement instance.  It records nothing.

    The address-only path ({!addresses}, {!prepare_addresses}) is the one
    code that turns an execution into trace words.  It computes no value:
    it appends each element access's packed word ({!Trace.word} of the
    element address) to a recorder, reads left-to-right and then the
    write, the access order the paper's machine would perform, in place in
    the recorder's current chunk (calling into {!Trace} only when the
    chunk is full: the default build compiles each library module with
    [-opaque], so {!Trace.emit} would be an indirect call per access).  It
    returns the value path's flop count (taken from the shape of each
    right-hand side) and raises the same [Invalid_argument] at the same
    access, which is all a cache simulation needs.

    It also runs strided innermost loops whole: a loop whose body holds
    only statements, possibly under one conjunction of guards affine in
    the loop variable (which narrow its range to the interval where they
    hold), and whose every subscript is a frame variable plus or minus a
    constant, checks every reference at the two ends of its range (such
    subscripts are monotone in the loop variable, so the ends decide every
    iteration), then appends each word and adds a per-reference step,
    leaving the loop variable's slot at the last value as the iterations
    would.  A range whose ends fail, or that runs fewer
    than three trips, runs iteration by iteration, which raises where the
    value path would. *)

val run : Store.t -> Loopir.Ast.program -> params:(string * int) list -> int
(** Executes the program in place on the store; returns the number of
    floating-point operations performed (adds, subs, muls, divs, sqrts,
    negations). *)

val addresses :
  Store.t ->
  Trace.recorder ->
  Loopir.Ast.program ->
  params:(string * int) list ->
  int
(** The address-only execution: one {!invoke} of {!prepare_addresses}.
    Appends to the recorder the word of every element access, returns the
    flop count {!run} would, and reads and writes no element.  The store
    needs only its layout ({!Store.plan}).
    @raise Invalid_argument where {!run} would, on the same access. *)

type prepared
(** A compiled program whose parameter bindings can be rebound cheaply
    between invocations — the block scheduler compiles each task body once
    per worker and re-invokes it with fresh block-coordinate bindings.
    Single-domain mutable state (frame, flop counter): one [prepared] per
    worker. *)

val prepare : Store.t -> Loopir.Ast.program -> prepared
(** The value path's compile. *)

val prepare_addresses :
  Store.t -> Trace.recorder -> Loopir.Ast.program -> prepared
(** The address-only compile: each invocation appends its accesses' words
    to the recorder. *)

val invoke : prepared -> params:(string * int) list -> int
(** Runs the compiled body under the given bindings (parameters and any
    free loop variables); returns the flops performed by this invocation
    alone.  Slots not rebound keep their previous values, so callers must
    bind every free variable on every call.
    @raise Invalid_argument on a binding for a name the program never
    mentions — a silent drop here turns a caller's typo into a stale
    previous value. *)
