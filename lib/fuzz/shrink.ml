module Ast = Loopir.Ast
module E = Loopir.Expr
module F = Loopir.Fexpr

let replace_nth i x xs = List.mapi (fun j y -> if j = i then x else y) xs

let remove_nth i xs = List.filteri (fun j _ -> j <> i) xs

(* ------------------------------------------------------------------ *)
(* One-edit variants of expressions, references, statements            *)
(* ------------------------------------------------------------------ *)

let expr_variants (e : E.t) : E.t list =
  match e with
  | E.Const 1 -> []
  | E.Const _ | E.Var _ -> [ E.Const 1 ]
  | e -> E.Const 1 :: List.map (fun v -> E.Var v) (E.vars e)

let ref_variants (r : F.ref_) : F.ref_ list =
  List.concat
    (List.mapi
       (fun i e ->
         List.map (fun e' -> { r with F.idx = replace_nth i e' r.F.idx }) (expr_variants e))
       r.F.idx)

let rec fexpr_variants (e : F.t) : F.t list =
  match e with
  | F.Const _ -> []
  | F.Ref r -> List.map (fun r' -> F.Ref r') (ref_variants r)
  | F.Neg a -> a :: List.map (fun a' -> F.Neg a') (fexpr_variants a)
  | F.Sqrt a -> a :: List.map (fun a' -> F.Sqrt a') (fexpr_variants a)
  | F.Bin (op, a, b) ->
    [ a; b ]
    @ List.map (fun a' -> F.Bin (op, a', b)) (fexpr_variants a)
    @ List.map (fun b' -> F.Bin (op, a, b')) (fexpr_variants b)

let stmt_variants (s : Ast.stmt) : Ast.stmt list =
  (match s.Ast.rhs with F.Const _ -> [] | _ -> [ { s with Ast.rhs = F.Const 1.0 } ])
  @ List.map (fun rhs -> { s with Ast.rhs }) (fexpr_variants s.Ast.rhs)
  @ List.map (fun lhs -> { s with Ast.lhs }) (ref_variants s.Ast.lhs)

let loop_bound_variants (l : Ast.loop) : Ast.loop list =
  (if E.equal l.Ast.lo (E.Const 1) then [] else [ { l with Ast.lo = E.Const 1 } ])
  @ (if E.equal l.Ast.hi (E.Var "N") then [] else [ { l with Ast.hi = E.Var "N" } ])
  @ if E.equal l.Ast.hi (E.Const 2) then [] else [ { l with Ast.hi = E.Const 2 } ]

(* ------------------------------------------------------------------ *)
(* One-edit variants of forests: each variant replaces a single node   *)
(* by a forest (deletion = [], splice = the node's children)           *)
(* ------------------------------------------------------------------ *)

let rec forest_variants (ts : Ast.t list) : Ast.t list list =
  match ts with
  | [] -> []
  | t :: rest ->
    List.map (fun repl -> repl @ rest) (node_variants t)
    @ List.map (fun rest' -> t :: rest') (forest_variants rest)

and node_variants (t : Ast.t) : Ast.t list list =
  match t with
  | Ast.Stmt s -> [] :: List.map (fun s' -> [ Ast.Stmt s' ]) (stmt_variants s)
  | Ast.Loop l ->
    ([] :: [ l.Ast.body ])
    @ List.map (fun l' -> [ Ast.Loop l' ]) (loop_bound_variants l)
    @ List.map
        (fun body' -> [ Ast.Loop { l with Ast.body = body' } ])
        (forest_variants l.Ast.body)
  | Ast.If (gs, body) ->
    ([] :: [ body ])
    @ (if List.length gs <= 1 then []
       else List.mapi (fun i _ -> [ Ast.If (remove_nth i gs, body) ]) gs)
    @ List.map (fun body' -> [ Ast.If (gs, body') ]) (forest_variants body)

let rec prune (ts : Ast.t list) : Ast.t list =
  List.filter_map
    (function
      | Ast.Stmt _ as s -> Some s
      | Ast.Loop l -> (
        match prune l.Ast.body with
        | [] -> None
        | body -> Some (Ast.Loop { l with Ast.body = body }))
      | Ast.If (gs, body) -> (
        match prune body with [] -> None | body -> Some (Ast.If (gs, body))))
    ts

let variants (prog : Ast.program) : Ast.program list =
  let bodies =
    List.filter_map
      (fun body -> match prune body with [] -> None | body -> Some body)
      (forest_variants prog.Ast.body)
  in
  let structural = List.map (fun body -> { prog with Ast.body }) bodies in
  let arrays =
    if List.length prog.Ast.arrays <= 1 then []
    else
      List.mapi
        (fun i _ -> { prog with Ast.arrays = remove_nth i prog.Ast.arrays })
        prog.Ast.arrays
  in
  structural @ arrays

(* Calls to [keep] one minimization may make. *)
let max_checks = 500

let minimize ~keep prog =
  let checks = ref 0 in
  let try_keep p =
    if !checks >= max_checks then false
    else begin
      incr checks;
      keep p
    end
  in
  let rec go prog =
    if !checks >= max_checks then prog
    else
      match List.find_opt try_keep (variants prog) with
      | Some p -> go p
      | None -> prog
  in
  go prog
