module Ast = Loopir.Ast
module E = Loopir.Expr
module F = Loopir.Fexpr
module S = Polyhedra.System

type instance = {
  seq : int;
  stmt : Ast.stmt;
  env : (string * int) list;
}

type access = {
  inst : instance;
  array : string;
  index : int list;
  is_write : bool;
}

let rec lookup env v =
  match env with
  | (name, x) :: rest -> if String.equal name v then x else lookup rest v
  | [] -> invalid_arg ("Brute: unbound variable " ^ v)

(* The one walker: every other enumeration here is built on it. *)
let iter_instances (prog : Ast.program) ~params ~f =
  let seq = ref 0 in
  let rec go env node =
    match node with
    | Ast.Loop l ->
      let lo = E.eval (lookup env) l.Ast.lo and hi = E.eval (lookup env) l.Ast.hi in
      for v = lo to hi do
        List.iter (go ((l.Ast.var, v) :: env)) l.Ast.body
      done
    | Ast.If (gs, body) ->
      if List.for_all (Ast.eval_guard (lookup env)) gs then List.iter (go env) body
    | Ast.Stmt stmt ->
      f { seq = !seq; stmt; env };
      incr seq
  in
  List.iter (go params) prog.Ast.body

let instances prog ~params =
  let out = ref [] in
  iter_instances prog ~params ~f:(fun i -> out := i :: !out);
  List.rev !out

(* An instance's accesses in execution order: its reads left to right,
   then its write. *)
let iter_touches inst ~f =
  let touch is_write (r : F.ref_) =
    f
      { inst;
        array = r.F.array;
        index = List.map (E.eval (lookup inst.env)) r.F.idx;
        is_write }
  in
  List.iter (touch false) (F.reads inst.stmt.Ast.rhs);
  touch true inst.stmt.Ast.lhs

let iter_accesses prog ~params ~f =
  iter_instances prog ~params ~f:(fun inst -> iter_touches inst ~f)

let accesses prog ~params =
  let out = ref [] in
  iter_accesses prog ~params ~f:(fun a -> out := a :: !out);
  List.rev !out

let record store rc prog ~params =
  iter_accesses prog ~params ~f:(fun a ->
      let arr = Exec.Store.find store a.array in
      let off = Exec.Store.offset arr (Array.of_list a.index) in
      Trace.emit rc ~write:a.is_write ~addr:(arr.Exec.Store.base + off))

let lex_lt a b =
  let n = min (Array.length a) (Array.length b) in
  let rec go i =
    if i >= n then false
    else if a.(i) < b.(i) then true
    else if a.(i) > b.(i) then false
    else go (i + 1)
  in
  go 0

let block spec i = Shackle.Spec.block_vector spec i.stmt (lookup i.env)

let order prog spec ~params =
  let by_block (a, _) (b, _) = if lex_lt a b then -1 else if lex_lt b a then 1 else 0 in
  List.map snd
    (List.stable_sort by_block
       (List.map (fun i -> (block spec i, i)) (instances prog ~params)))

let same_instances a b =
  let keys l =
    List.sort compare (List.map (fun i -> (i.stmt.Ast.id, List.sort compare i.env)) l)
  in
  keys a = keys b

(* A touch [dst] completes a violated pair with an earlier touch [src] of
   its element exactly when [src]'s block vector is lexicographically
   above [dst]'s and one of them writes; so it suffices to compare [dst]
   with the greatest block vector among the element's earlier touches
   (for a write) or earlier writes (for a read).  Earlier touches of
   [dst]'s own instance share its block vector and never compare above
   it. *)
let first_violation prog spec ~params =
  let exception Violation of access * access in
  let cells = Hashtbl.create 256 in
  let raise_to top a bv =
    match top with
    | Some (_, top_bv) when not (lex_lt top_bv bv) -> top
    | _ -> Some (a, bv)
  in
  try
    iter_instances prog ~params ~f:(fun inst ->
        let bv = block spec inst in
        iter_touches inst ~f:(fun dst ->
            let key = (dst.array, dst.index) in
            let any, writes =
              Option.value (Hashtbl.find_opt cells key) ~default:(None, None)
            in
            (match if dst.is_write then any else writes with
             | Some (src, src_bv) when lex_lt bv src_bv ->
               raise (Violation (src, dst))
             | _ -> ());
            Hashtbl.replace cells key
              ( raise_to any dst bv,
                if dst.is_write then raise_to writes dst bv else writes )));
    None
  with Violation (src, dst) -> Some (src, dst)

let legal prog spec ~params = Option.is_none (first_violation prog spec ~params)

let access_string a =
  let loop_vars =
    List.filter (fun (v, _) -> not (String.equal v "N")) (List.rev a.inst.env)
  in
  Printf.sprintf "%s[%s] %s %s(%s) #%d" a.inst.stmt.Ast.label
    (String.concat " " (List.map (fun (v, x) -> Printf.sprintf "%s=%d" v x) loop_vars))
    (if a.is_write then "write" else "read")
    a.array
    (String.concat ", " (List.map string_of_int a.index))
    a.inst.seq

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
