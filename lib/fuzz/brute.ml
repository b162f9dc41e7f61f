module Ast = Loopir.Ast
module E = Loopir.Expr
module F = Loopir.Fexpr
module S = Polyhedra.System

type access = {
  seq : int;
  stmt : Ast.stmt;
  env : (string * int) list;
  array : string;
  index : int list;
  is_write : bool;
}

let accesses (prog : Ast.program) ~params =
  let seq = ref 0 in
  let out = ref [] in
  let rec go env node =
    let lookup v = List.assoc v env in
    match node with
    | Ast.Loop l ->
      let lo = E.eval lookup l.lo and hi = E.eval lookup l.hi in
      for v = lo to hi do
        List.iter (go ((l.Ast.var, v) :: env)) l.Ast.body
      done
    | Ast.If (gs, body) ->
      if List.for_all (Ast.eval_guard lookup) gs then List.iter (go env) body
    | Ast.Stmt s ->
      let k = !seq in
      incr seq;
      let record is_write (r : F.ref_) =
        out :=
          { seq = k;
            stmt = s;
            env;
            array = r.F.array;
            index = List.map (E.eval lookup) r.F.idx;
            is_write }
          :: !out
      in
      List.iter (record false) (F.reads s.Ast.rhs);
      record true s.Ast.lhs
  in
  List.iter (go params) prog.Ast.body;
  List.rev !out

let record store rc prog ~params =
  List.iter
    (fun a ->
      let arr = Exec.Store.find store a.array in
      let off = Exec.Store.offset arr (Array.of_list a.index) in
      Trace.emit rc ~write:a.is_write ~addr:(arr.Exec.Store.base + off))
    (accesses prog ~params)

let lex_lt a b =
  let n = min (Array.length a) (Array.length b) in
  let rec go i =
    if i >= n then false
    else if a.(i) < b.(i) then true
    else if a.(i) > b.(i) then false
    else go (i + 1)
  in
  go 0

let first_violation prog spec ~params =
  let cells = Hashtbl.create 256 in
  List.iter
    (fun a ->
      let key = (a.array, a.index) in
      let bv = Shackle.Spec.block_vector spec a.stmt (fun v -> List.assoc v a.env) in
      Hashtbl.replace cells key ((a, bv) :: (try Hashtbl.find cells key with Not_found -> [])))
    (accesses prog ~params);
  let result = ref None in
  Hashtbl.iter
    (fun _ touches ->
      if Option.is_none !result then begin
        (* [touches] is in reverse execution order; restore it *)
        let touches = List.rev touches in
        let rec pairs = function
          | [] -> ()
          | (src, bv_src) :: rest ->
            List.iter
              (fun (dst, bv_dst) ->
                if
                  Option.is_none !result
                  && src.seq < dst.seq
                  && (src.is_write || dst.is_write)
                  && lex_lt bv_dst bv_src
                then result := Some (src, dst))
              rest;
            if Option.is_none !result then pairs rest
        in
        pairs touches
      end)
    cells;
  !result

let legal prog spec ~params = Option.is_none (first_violation prog spec ~params)

let access_string a =
  let loop_vars =
    List.filter (fun (v, _) -> not (String.equal v "N")) (List.rev a.env)
  in
  Printf.sprintf "%s[%s] %s %s(%s) #%d" a.stmt.Ast.label
    (String.concat " " (List.map (fun (v, x) -> Printf.sprintf "%s=%d" v x) loop_vars))
    (if a.is_write then "write" else "read")
    a.array
    (String.concat ", " (List.map string_of_int a.index))
    a.seq

let feasible sys ~bound =
  let dim = S.dim sys in
  let pt = Array.make dim 0 in
  let rec go i =
    if i = dim then
      if S.satisfied_by_ints sys pt then Some (Array.copy pt) else None
    else begin
      let rec try_v v =
        if v > bound then None
        else begin
          pt.(i) <- v;
          match go (i + 1) with Some _ as r -> r | None -> try_v (v + 1)
        end
      in
      try_v (-bound)
    end
  in
  go 0
