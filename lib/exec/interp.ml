module Ast = Loopir.Ast
module E = Loopir.Expr
module Fexpr = Loopir.Fexpr

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

(* A reference compiles to code returning [add + scale * offset], where
   offset is its flat offset into the data array of [arr], fixed at
   compile time, through the strides the store computed up front: the
   value path takes the offset itself, the address-only path the packed
   trace word ([scale] 2, [add] the array's base word and the write bit).
   The inline range test is Store.offset's (each index in [1..extent]; for
   band storage also 0 <= i - j <= bw).  An index that fails it is handed
   to Store.offset, which raises the same Invalid_argument a direct call
   would. *)
let compile_offset ?(scale = 1) ?(add = 0) env (arr : Store.arr)
    (idx : E.t list) : int array -> int =
  let subs = Array.of_list (List.map (compile_sub env) idx) in
  let slow frame =
    add + (scale * Store.offset arr (Array.map (fun s -> sub_value s frame) subs))
  in
  let ext = arr.Store.extents in
  let strides = Array.map (fun st -> scale * st) arr.Store.strides in
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
      else add + ((i - 1) * st0) + ((j - 1) * st1)
    in
    match (subs.(0), subs.(1)) with
    | Slot (a, da), Slot (b, db) ->
      (* both subscripts are frame slots: no match per evaluation *)
      fun frame -> at frame (frame.(a) + da) (frame.(b) + db)
    | si, sj -> fun frame -> at frame (sub_value si frame) (sub_value sj frame)
  end
  else fun frame ->
    let off = ref add and ok = ref true in
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
   evaluated left to right, the order the address-only path emits their
   words, so both raise at the same out-of-range access. *)
let rec compile_fexpr env store flops (sc : float array) r (e : Fexpr.t)
    : int array -> unit =
  match e with
  | Fexpr.Ref rf ->
    let arr = Store.find store rf.array in
    let off = compile_offset env arr rf.idx in
    let data = arr.Store.data in
    fun f -> sc.(r) <- data.(off f)
  | Fexpr.Const x -> fun _ -> sc.(r) <- x
  | Fexpr.Neg a ->
    let ca = compile_fexpr env store flops sc r a in
    fun f ->
      ca f;
      incr flops;
      sc.(r) <- -.sc.(r)
  | Fexpr.Sqrt a ->
    let ca = compile_fexpr env store flops sc r a in
    fun f ->
      ca f;
      incr flops;
      sc.(r) <- sqrt sc.(r)
  | Fexpr.Bin (op, a, b) ->
    let r' = r + 1 in
    let ca = compile_fexpr env store flops sc r a
    and cb = compile_fexpr env store flops sc r' b in
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

(* One statement on the value path: the right-hand side's reads come
   before the write. *)
let compile_stmt env store flops (s : Ast.stmt) : int array -> unit =
  let sc = Array.make (depth s.rhs) 0.0 in
  let rhs = compile_fexpr env store flops sc 0 s.rhs in
  let arr = Store.find store s.lhs.array in
  let off = compile_offset env arr s.lhs.idx in
  let data = arr.Store.data in
  fun frame ->
    rhs frame;
    data.(off frame) <- sc.(0)

(* The control structure both compiles share.  [stmt] compiles one
   statement; [whole] may compile a loop's whole range at once, as code
   that returns [false] having done nothing when it declines a range, in
   which case the loop runs its iterations one by one. *)
let rec compile_node env stmt whole (node : Ast.t) : int array -> unit =
  match node with
  | Ast.Stmt s -> stmt s
  | Ast.If (gs, body) ->
    let cgs = Array.of_list (List.map (compile_guard env) gs) in
    let n = Array.length cgs in
    let cbody = compile_body env stmt whole body in
    fun frame ->
      let i = ref 0 in
      while !i < n && cgs.(!i) frame do
        incr i
      done;
      if !i = n then cbody frame
  | Ast.Loop l ->
    let lo = compile_iexpr env l.lo and hi = compile_iexpr env l.hi in
    let sl = slot env l.var in
    let cbody = compile_body env stmt whole l.body in
    (match whole l sl with
     | None ->
       fun frame ->
         let a = lo frame and b = hi frame in
         for v = a to b do
           frame.(sl) <- v;
           cbody frame
         done
     | Some run ->
       fun frame ->
         let a = lo frame and b = hi frame in
         if not (run frame a b) then
           for v = a to b do
             frame.(sl) <- v;
             cbody frame
           done)

and compile_body env stmt whole body =
  match Array.of_list (List.map (compile_node env stmt whole) body) with
  | [| c |] -> c
  | cs ->
    fun frame ->
      for i = 0 to Array.length cs - 1 do
        cs.(i) frame
      done

(* ------------------------------------------------------------------ *)
(* The address-only compile                                            *)
(* ------------------------------------------------------------------ *)

(* The flops one evaluation of a right-hand side performs: the value path
   counts one per operator node. *)
let rec rhs_flops (e : Fexpr.t) =
  match e with
  | Fexpr.Ref _ | Fexpr.Const _ -> 0
  | Fexpr.Neg a | Fexpr.Sqrt a -> 1 + rhs_flops a
  | Fexpr.Bin (_, a, b) -> 1 + rhs_flops a + rhs_flops b

(* A statement's references in trace order, each with its write bit: the
   reads left to right (the value path's evaluation order), then the
   write. *)
let accesses (s : Ast.stmt) =
  List.map (fun r -> (r, 0)) (Fexpr.reads s.rhs) @ [ (s.lhs, 1) ]

(* A reference compiles to code returning its packed trace word. *)
let compile_word env store ((rf : Fexpr.ref_), wbit) =
  let arr = Store.find store rf.array in
  compile_offset ~scale:2 ~add:((arr.Store.base lsl 1) lor wbit) env arr
    rf.idx

let compile_words env store rc flops (s : Ast.stmt) : int array -> unit =
  let words = Array.of_list (List.map (compile_word env store) (accesses s)) in
  let n = Array.length words and k = rhs_flops s.rhs in
  fun frame ->
    for i = 0 to n - 1 do
      append rc ((Array.unsafe_get words i) frame)
    done;
    flops := !flops + k

(* Ranges shorter than this run their iterations one by one: the range
   checks cost more than so few iterations save. *)
let min_strided_trips = 3

(* The coefficient of [v] in [e] when [e] is affine in [v] (no [v] under a
   division, [max] or [min]) and divides by no zero. *)
let rec coef v (e : E.t) =
  let mentions e = List.mem v (E.vars e) in
  match e with
  | E.Var s -> Some (if s = v then 1 else 0)
  | E.Const _ -> Some 0
  | E.Add (a, b) -> Option.bind (coef v a) (fun x -> Option.map (( + ) x) (coef v b))
  | E.Sub (a, b) -> Option.bind (coef v a) (fun x -> Option.map (( - ) x) (coef v b))
  | E.Mul (k, a) -> Option.map (( * ) k) (coef v a)
  | (E.FloorDiv (a, d) | E.CeilDiv (a, d)) when d <> 0 && not (mentions a) ->
    Option.map (fun _ -> 0) (coef v a)
  | (E.Max (a, b) | E.Min (a, b)) when not (mentions e) ->
    Option.bind (coef v a) (fun _ -> Option.map (fun _ -> 0) (coef v b))
  | E.FloorDiv _ | E.CeilDiv _ | E.Max _ | E.Min _ -> None

(* A strided innermost loop: its body holds only statements, possibly
   under one conjunction of guards affine in the loop variable, and every
   subscript in it is a frame slot plus a constant.  Only the loop
   variable's slot changes inside the loop, so the guards hold on one
   interval of the range (found from their values at its first
   iteration), each subscript is constant or rises by one per iteration,
   each reference's word rises by a fixed step, and the two ends of the
   interval decide every range check: the loop's subscripts must lie in
   [vlo .. vhi] (folded at compile time), each other slot in its own
   bounds, and a band's i - j (monotone in the loop variable) in
   [0 .. bw] at both ends.  When they all hold, the loop appends each
   iteration's words (word by word, so chunks split where they would
   anyway) and adds each step; otherwise it declines the range, and the
   iterations one by one raise Store.offset's Invalid_argument at the
   access that fails. *)
let compile_strided env store rc flops (l : Ast.loop) sl =
  let guards, body =
    match l.body with [ Ast.If (gs, body) ] -> (gs, body) | body -> ([], body)
  in
  let stmts = List.filter_map (function Ast.Stmt s -> Some s | _ -> None) body in
  (* each reference's array, subscripts (a frame slot plus a constant, or
     [None]) and write bit *)
  let refs =
    List.map
      (fun ((rf : Fexpr.ref_), wbit) ->
        let subs =
          List.map
            (fun e ->
              match compile_sub env e with Slot (i, d) -> Some (i, d) | Code _ -> None)
            rf.idx
        in
        (Store.find store rf.array, subs, wbit))
      (List.concat_map accesses stmts)
  in
  let guard_coefs =
    List.map (fun (g : Ast.guard) -> coef l.var (E.Sub (g.g_lhs, g.g_rhs))) guards
  in
  let eligible =
    stmts <> []
    && List.length stmts = List.length body
    && List.for_all Option.is_some guard_coefs
    && List.for_all
         (fun ((arr : Store.arr), subs, _) ->
           List.length subs = Array.length arr.extents
           && List.for_all Option.is_some subs
           &&
           match (arr.layout, subs) with
           | Store.Banded bw, [ Some (si, di); Some (sj, dj) ]
             when si = sl && sj = sl ->
             (* i - j is constant over the loop: in the band or never *)
             di - dj >= 0 && di - dj <= bw
           | _ -> true)
         refs
  in
  if not eligible then None
  else begin
    (* each guard's left side minus its right, [c * v + r], as code and
       [c], and the guards as constraints [sign * (c * v + r) + off >= 0] *)
    let g_code =
      Array.of_list
        (List.map
           (fun (g : Ast.guard) -> compile_iexpr env (E.Sub (g.g_lhs, g.g_rhs)))
           guards)
    and g_coef = Array.of_list (List.map Option.get guard_coefs) in
    let cons =
      Array.of_list
        (List.concat
           (List.mapi
              (fun i (g : Ast.guard) ->
                match g.g_rel with
                | Ast.Ge -> [ (i, 1, 0) ]
                | Ast.Gt -> [ (i, 1, -1) ]
                | Ast.Le -> [ (i, -1, 0) ]
                | Ast.Lt -> [ (i, -1, -1) ]
                | Ast.Eq -> [ (i, 1, 0); (i, -1, 0) ])
              guards))
    in
    (* per reference: its word with every slot at 0 and its invariant
       slots with their scaled strides (the word's value at the first
       iteration, less the loop variable's part), and its step; the
       bounds on the loop variable, on each other slot, and the bands *)
    let nr = List.length refs in
    let first = Array.make nr (0, [||]) and step = Array.make nr 0 in
    let vlo = ref min_int and vhi = ref max_int in
    let bounds = Hashtbl.create 8 and bands = ref [] in
    List.iteri
      (fun k ((arr : Store.arr), subs, wbit) ->
        let subs = List.map Option.get subs in
        let c0 = ref ((arr.Store.base lsl 1) lor wbit) and inv = ref [] in
        List.iteri
          (fun d (si, delta) ->
            let st2 = 2 * arr.Store.strides.(d) and ext = arr.Store.extents.(d) in
            c0 := !c0 + ((delta - 1) * st2);
            if si = sl then begin
              step.(k) <- step.(k) + st2;
              vlo := max !vlo (1 - delta);
              vhi := min !vhi (ext - delta)
            end
            else begin
              inv := (si, st2) :: !inv;
              let lo, hi =
                Option.value ~default:(min_int, max_int) (Hashtbl.find_opt bounds si)
              in
              Hashtbl.replace bounds si (max lo (1 - delta), min hi (ext - delta))
            end)
          subs;
        first.(k) <- (!c0, Array.of_list !inv);
        match (arr.Store.layout, subs) with
        | Store.Banded bw, [ (si, di); (sj, dj) ] when not (si = sl && sj = sl) ->
          bands := (si, sj, di - dj, bw) :: !bands
        | _ -> ())
      refs;
    let vlo = !vlo and vhi = !vhi in
    let checks =
      Array.of_list (Hashtbl.fold (fun si (lo, hi) acc -> (si, lo, hi) :: acc) bounds [])
    and bands = Array.of_list !bands in
    let kflops = List.fold_left (fun acc (s : Ast.stmt) -> acc + rhs_flops s.rhs) 0 stmts in
    let cur = Array.make nr 0 in
    let at frame si v = if si = sl then v else frame.(si) in
    let in_bounds frame a b =
      let ok = ref (a >= vlo && b <= vhi) in
      for c = 0 to Array.length checks - 1 do
        let si, lo, hi = checks.(c) in
        let x = frame.(si) in
        if x < lo || x > hi then ok := false
      done;
      for k = 0 to Array.length bands - 1 do
        (* i - j at both ends *)
        let si, sj, dd, bw = bands.(k) in
        let x = at frame si a - at frame sj a + dd
        and y = at frame si b - at frame sj b + dd in
        if x < 0 || x > bw || y < 0 || y > bw then ok := false
      done;
      !ok
    in
    (* the iterations [a .. b] once the checks passed *)
    let run frame a b =
      for k = 0 to nr - 1 do
        let c0, inv = first.(k) in
        let w = ref (c0 + (a * step.(k))) in
        for d = 0 to Array.length inv - 1 do
          let si, st2 = inv.(d) in
          w := !w + (frame.(si) * st2)
        done;
        cur.(k) <- !w
      done;
      for _ = a to b do
        for k = 0 to nr - 1 do
          let w = Array.unsafe_get cur k in
          append rc w;
          Array.unsafe_set cur k (w + Array.unsafe_get step k)
        done
      done;
      flops := !flops + ((b - a + 1) * kflops)
    in
    Some
      (fun frame a b ->
        if b - a + 1 < min_strided_trips then a > b
        else begin
          (* the guards' interval: [c * v + r >= 0] bounds v below for
             c > 0 and above for c < 0, and holds everywhere or nowhere
             for c = 0; r comes from the guard's value at v = a *)
          frame.(sl) <- a;
          let lo = ref a and hi = ref b in
          for k = 0 to Array.length cons - 1 do
            let g, sign, off = cons.(k) in
            let c = sign * g_coef.(g) in
            let r = (sign * (g_code.(g) frame - (g_coef.(g) * a))) + off in
            if c > 0 then begin
              let x = -fdiv_int r c in
              if x > !lo then lo := x
            end
            else if c < 0 then begin
              let x = fdiv_int r (-c) in
              if x < !hi then hi := x
            end
            else if r < 0 then hi := !lo - 1
          done;
          let lo = !lo and hi = !hi in
          if lo <= hi && not (in_bounds frame lo hi) then false
          else begin
            if lo <= hi then run frame lo hi;
            frame.(sl) <- b;
            true
          end
        end)
  end

type prepared = {
  p_env : env;
  p_main : int array -> unit;
  p_frame : int array;
  p_flops : int ref;
}

(* [compile env flops body] compiles the program's body. *)
let prepare_with (prog : Ast.program) compile =
  let env = { slots = Hashtbl.create 16; count = 0 } in
  let flops = ref 0 in
  (* reserve slots for params first *)
  List.iter (fun p -> ignore (slot env p)) prog.params;
  let main = compile env flops prog.body in
  (* env.count is final once the body is compiled: one slot per distinct
     name, no more *)
  let frame = Array.make env.count 0 in
  { p_env = env; p_main = main; p_frame = frame; p_flops = flops }

let prepare store (prog : Ast.program) =
  prepare_with prog (fun env flops body ->
      compile_body env (compile_stmt env store flops) (fun _ _ -> None) body)

let prepare_addresses store rc (prog : Ast.program) =
  prepare_with prog (fun env flops body ->
      compile_body env (compile_words env store rc flops)
        (compile_strided env store rc flops) body)

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

let run store (prog : Ast.program) ~params = invoke (prepare store prog) ~params

let addresses store rc (prog : Ast.program) ~params =
  invoke (prepare_addresses store rc prog) ~params
