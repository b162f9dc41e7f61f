module Ast = Loopir.Ast
module E = Loopir.Expr
module Fexpr = Loopir.Fexpr

type trace = write:bool -> addr:int -> unit

(* Variable slots: one per distinct name.  Loop variable names may repeat
   across sibling loops (disjoint lifetimes), so sharing a slot is safe. *)
type env = { slots : (string, int) Hashtbl.t; mutable count : int }

let slot env name =
  match Hashtbl.find_opt env.slots name with
  | Some i -> i
  | None ->
    let i = env.count in
    env.count <- env.count + 1;
    Hashtbl.add env.slots name i;
    i

let fdiv_int a d =
  let q = a / d and r = a mod d in
  if r < 0 then q - 1 else q

let rec compile_iexpr env (e : E.t) : int array -> int =
  match e with
  | E.Var s ->
    let i = slot env s in
    fun frame -> frame.(i)
  | E.Const n -> fun _ -> n
  | E.Add (a, b) ->
    let ca = compile_iexpr env a and cb = compile_iexpr env b in
    fun f -> ca f + cb f
  | E.Sub (a, b) ->
    let ca = compile_iexpr env a and cb = compile_iexpr env b in
    fun f -> ca f - cb f
  | E.Mul (k, a) ->
    let ca = compile_iexpr env a in
    fun f -> k * ca f
  | E.FloorDiv (a, d) ->
    let ca = compile_iexpr env a in
    fun f -> fdiv_int (ca f) d
  | E.CeilDiv (a, d) ->
    let ca = compile_iexpr env a in
    fun f -> -fdiv_int (-ca f) d
  | E.Max (a, b) ->
    let ca = compile_iexpr env a and cb = compile_iexpr env b in
    fun f -> max (ca f) (cb f)
  | E.Min (a, b) ->
    let ca = compile_iexpr env a and cb = compile_iexpr env b in
    fun f -> min (ca f) (cb f)

(* One subscript of a reference.  A plain variable, possibly plus or minus
   a constant, is read straight from its frame slot; anything else runs
   its compiled code. *)
type sub =
  | Slot of int * int  (** [frame.(slot) + delta] *)
  | Code of (int array -> int)

let compile_sub env (e : E.t) =
  match e with
  | E.Var s -> Slot (slot env s, 0)
  | E.Add (E.Var s, E.Const k) | E.Add (E.Const k, E.Var s) ->
    Slot (slot env s, k)
  | E.Sub (E.Var s, E.Const k) -> Slot (slot env s, -k)
  | _ -> Code (compile_iexpr env e)

let[@inline] sub_value s (frame : int array) =
  match s with Slot (i, delta) -> frame.(i) + delta | Code c -> c frame

(* Append one packed word to the recorder's current chunk, calling into
   Trace only when the chunk is full or there is none yet.  Trace.emit
   would do the same, but under -opaque (the default build) every call to
   it goes through Trace's module block, once per trace word. *)
let[@inline] append (rc : Trace.recorder) w =
  if rc.len = Array.length rc.buf then Trace.flush rc;
  Array.unsafe_set rc.buf rc.len w;
  rc.len <- rc.len + 1

(* A reference compiles to code returning its flat offset into the data
   array of [arr], fixed at compile time, through the strides the store
   computed up front.  The inline range test is Store.offset's (each index
   in [1..extent]; for band storage also 0 <= i - j <= bw).  An index that
   fails it is handed to Store.offset, which raises the same
   Invalid_argument a direct call would. *)
let compile_offset env (arr : Store.arr) (idx : E.t list) : int array -> int =
  let subs = Array.of_list (List.map (compile_sub env) idx) in
  let slow frame =
    Store.offset arr (Array.map (fun s -> sub_value s frame) subs)
  in
  let ext = arr.Store.extents and strides = arr.Store.strides in
  let rank = Array.length ext in
  if Array.length subs <> rank then slow
  else if rank = 2 then begin
    (* the band bounds i - j; for dense layouts every in-range pair passes *)
    let lo, hi =
      match arr.Store.layout with
      | Store.Banded bw -> (0, bw)
      | Store.Col_major | Store.Row_major -> (min_int, max_int)
    in
    let rows = ext.(0) and cols = ext.(1) in
    let st0 = strides.(0) and st1 = strides.(1) in
    let[@inline] at frame i j =
      if i < 1 || i > rows || j < 1 || j > cols || i - j < lo || i - j > hi
      then slow frame
      else ((i - 1) * st0) + ((j - 1) * st1)
    in
    match (subs.(0), subs.(1)) with
    | Slot (a, da), Slot (b, db) ->
      (* both subscripts are frame slots: no match per evaluation *)
      fun frame -> at frame (frame.(a) + da) (frame.(b) + db)
    | si, sj -> fun frame -> at frame (sub_value si frame) (sub_value sj frame)
  end
  else fun frame ->
    let off = ref 0 and ok = ref true in
    for d = 0 to rank - 1 do
      let v = sub_value subs.(d) frame in
      if v < 1 || v > ext.(d) then ok := false;
      off := !off + ((v - 1) * strides.(d))
    done;
    if !ok then !off else slow frame

(* Scratch slots a right-hand side needs when evaluated as a stack: a node
   leaves its value in its slot r, and a binary node evaluates its right
   operand into r + 1. *)
let rec depth (e : Fexpr.t) =
  match e with
  | Fexpr.Ref _ | Fexpr.Const _ -> 1
  | Fexpr.Neg a | Fexpr.Sqrt a -> depth a
  | Fexpr.Bin (_, a, b) -> max (depth a) (1 + depth b)

(* A right-hand side compiles to code that leaves its value in
   [sc.(r)]: floats stay unboxed in the statement's scratch array, the
   operator is matched here rather than per evaluation, and operands are
   evaluated left to right so the trace reads them in textual order. *)
let rec compile_fexpr env store sink flops (sc : float array) r (e : Fexpr.t)
    : int array -> unit =
  match e with
  | Fexpr.Ref rf ->
    let arr = Store.find store rf.array in
    let off = compile_offset env arr rf.idx in
    let data = arr.Store.data and base = arr.Store.base in
    (* the sink is matched once, at compile time, so the no-trace path
       carries no per-access dispatch *)
    (match sink with
     | Trace.No_trace -> fun f -> sc.(r) <- data.(off f)
     | Trace.Callback t ->
       fun f ->
         let o = off f in
         t ~write:false ~addr:(base + o);
         sc.(r) <- data.(o)
     | Trace.Record rc ->
       fun f ->
         let o = off f in
         append rc ((base + o) lsl 1);
         sc.(r) <- data.(o))
  | Fexpr.Const x -> fun _ -> sc.(r) <- x
  | Fexpr.Neg a ->
    let ca = compile_fexpr env store sink flops sc r a in
    fun f ->
      ca f;
      incr flops;
      sc.(r) <- -.sc.(r)
  | Fexpr.Sqrt a ->
    let ca = compile_fexpr env store sink flops sc r a in
    fun f ->
      ca f;
      incr flops;
      sc.(r) <- sqrt sc.(r)
  | Fexpr.Bin (op, a, b) ->
    let r' = r + 1 in
    let ca = compile_fexpr env store sink flops sc r a
    and cb = compile_fexpr env store sink flops sc r' b in
    (match op with
     | Fexpr.Fadd ->
       fun f ->
         ca f;
         cb f;
         incr flops;
         sc.(r) <- sc.(r) +. sc.(r')
     | Fexpr.Fsub ->
       fun f ->
         ca f;
         cb f;
         incr flops;
         sc.(r) <- sc.(r) -. sc.(r')
     | Fexpr.Fmul ->
       fun f ->
         ca f;
         cb f;
         incr flops;
         sc.(r) <- sc.(r) *. sc.(r')
     | Fexpr.Fdiv ->
       fun f ->
         ca f;
         cb f;
         incr flops;
         sc.(r) <- sc.(r) /. sc.(r'))

let compile_guard env (g : Ast.guard) =
  let cl = compile_iexpr env g.g_lhs and cr = compile_iexpr env g.g_rhs in
  match g.g_rel with
  | Ast.Le -> fun f -> cl f <= cr f
  | Ast.Lt -> fun f -> cl f < cr f
  | Ast.Ge -> fun f -> cl f >= cr f
  | Ast.Gt -> fun f -> cl f > cr f
  | Ast.Eq -> fun f -> cl f = cr f

let rec compile_node env store sink flops (node : Ast.t) : int array -> unit =
  match node with
  | Ast.Stmt s ->
    (* the right-hand side's reads come before the write *)
    let sc = Array.make (depth s.rhs) 0.0 in
    let rhs = compile_fexpr env store sink flops sc 0 s.rhs in
    let arr = Store.find store s.lhs.array in
    let off = compile_offset env arr s.lhs.idx in
    let data = arr.Store.data and base = arr.Store.base in
    (match sink with
     | Trace.No_trace ->
       fun frame ->
         rhs frame;
         data.(off frame) <- sc.(0)
     | Trace.Callback t ->
       fun frame ->
         rhs frame;
         let o = off frame in
         t ~write:true ~addr:(base + o);
         data.(o) <- sc.(0)
     | Trace.Record rc ->
       fun frame ->
         rhs frame;
         let o = off frame in
         append rc (((base + o) lsl 1) lor 1);
         data.(o) <- sc.(0))
  | Ast.If (gs, body) ->
    let cgs = Array.of_list (List.map (compile_guard env) gs) in
    let n = Array.length cgs in
    let cbody = compile_body env store sink flops body in
    fun frame ->
      let i = ref 0 in
      while !i < n && cgs.(!i) frame do
        incr i
      done;
      if !i = n then cbody frame
  | Ast.Loop l ->
    let lo = compile_iexpr env l.lo and hi = compile_iexpr env l.hi in
    let sl = slot env l.var in
    let cbody = compile_body env store sink flops l.body in
    fun frame ->
      let a = lo frame and b = hi frame in
      for v = a to b do
        frame.(sl) <- v;
        cbody frame
      done

and compile_body env store sink flops body =
  match Array.of_list (List.map (compile_node env store sink flops) body) with
  | [| c |] -> c
  | cs ->
    fun frame ->
      for i = 0 to Array.length cs - 1 do
        cs.(i) frame
      done

type prepared = {
  p_env : env;
  p_main : int array -> unit;
  p_frame : int array;
  p_flops : int ref;
}

let prepare ?(sink = Trace.No_trace) store (prog : Ast.program) =
  let env = { slots = Hashtbl.create 16; count = 0 } in
  let flops = ref 0 in
  (* reserve slots for params first *)
  List.iter (fun p -> ignore (slot env p)) prog.params;
  let main = compile_body env store sink flops prog.body in
  (* env.count is final once compile_body returns: one slot per distinct
     name, no more *)
  let frame = Array.make env.count 0 in
  { p_env = env; p_main = main; p_frame = frame; p_flops = flops }

let invoke p ~params =
  List.iter
    (fun (name, value) ->
      match Hashtbl.find_opt p.p_env.slots name with
      | Some i -> p.p_frame.(i) <- value
      | None ->
        invalid_arg
          (Printf.sprintf "Exec.Interp.invoke: unknown parameter %s" name))
    params;
  let before = !(p.p_flops) in
  p.p_main p.p_frame;
  !(p.p_flops) - before

let run ?sink store (prog : Ast.program) ~params =
  invoke (prepare ?sink store prog) ~params
