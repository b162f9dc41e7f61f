module Ast = Loopir.Ast
module E = Loopir.Expr
module F = Loopir.Fexpr
module A = Polyhedra.Affine
module C = Polyhedra.Constr
module S = Polyhedra.System

type profile = { max_stmts : int; max_depth : int; max_arrays : int }

let profile ~quick =
  if quick then { max_stmts = 4; max_depth = 3; max_arrays = 2 }
  else { max_stmts = 6; max_depth = 3; max_arrays = 3 }

let guard_equal (g1 : Ast.guard) (g2 : Ast.guard) =
  E.equal g1.g_lhs g2.g_lhs && g1.g_rel = g2.g_rel && E.equal g1.g_rhs g2.g_rhs

let dedup_guards gs =
  List.fold_left
    (fun acc g -> if List.exists (guard_equal g) acc then acc else acc @ [ g ])
    [] gs

(* ------------------------------------------------------------------ *)
(* Subscripts                                                          *)
(* ------------------------------------------------------------------ *)

(* A subscript together with the guards needed to keep its value inside
   [1, N] whenever every loop variable is in [1, N] and N >= 2.  Guards are
   conservative (computed for the full [1, N] variable box, not the actual
   loop bounds), so any later narrowing of the loops keeps the program
   valid — the shrinker relies on this. *)
let subscript rng vars =
  let lo_guard e = Ast.guard e Ast.Ge (E.Const 1) in
  let hi_guard e = Ast.guard e Ast.Le (E.Var "N") in
  let case = Rng.int rng 100 in
  if vars = [] || case < 10 then (E.Const (Rng.range rng 1 2), [])
  else if case < 50 then (E.Var (Rng.pick rng vars), [])
  else if case < 65 then begin
    (* v + d, d = -1 or +1 *)
    let v = E.Var (Rng.pick rng vars) in
    if Rng.bool rng then
      let e = E.simplify (E.Add (v, E.Const 1)) in
      (e, [ hi_guard e ])
    else
      let e = E.simplify (E.Sub (v, E.Const 1)) in
      (e, [ lo_guard e ])
  end
  else if case < 75 then begin
    (* 2v + c, c in {-1, 0, 1}: minimum 2 + c >= 1, maximum needs a guard *)
    let c = Rng.range rng (-1) 1 in
    let e = E.simplify (E.Add (E.Mul (2, E.Var (Rng.pick rng vars)), E.Const c)) in
    (e, [ hi_guard e ])
  end
  else if case < 85 && List.length vars >= 2 then begin
    (* v1 + v2 + c, c in {-1, 0}: minimum 2 + c >= 1, maximum 2N + c > N *)
    let i = Rng.int rng (List.length vars) in
    let j = (i + 1 + Rng.int rng (List.length vars - 1)) mod List.length vars in
    let c = Rng.range rng (-1) 0 in
    let e =
      E.simplify
        (E.Add (E.Add (E.Var (List.nth vars i), E.Var (List.nth vars j)), E.Const c))
    in
    (e, [ hi_guard e ])
  end
  else if case < 92 && List.length vars >= 2 then begin
    (* v1 - v2 + c, c in {1, 2}: both ends can escape when c = 2 *)
    let i = Rng.int rng (List.length vars) in
    let j = (i + 1 + Rng.int rng (List.length vars - 1)) mod List.length vars in
    let c = Rng.range rng 1 2 in
    let e =
      E.simplify
        (E.Add (E.Sub (E.Var (List.nth vars i), E.Var (List.nth vars j)), E.Const c))
    in
    (e, lo_guard e :: (if c > 1 then [ hi_guard e ] else []))
  end
  else begin
    (* N - v + c, c in {0, 1}: reversal patterns (trisolve-style) *)
    let c = Rng.range rng 0 1 in
    let e =
      E.simplify (E.Add (E.Sub (E.Var "N", E.Var (Rng.pick rng vars)), E.Const c))
    in
    (e, if c = 0 then [ lo_guard e ] else [])
  end

(* ------------------------------------------------------------------ *)
(* Programs                                                            *)
(* ------------------------------------------------------------------ *)

let program ?(quick = false) rng =
  let prof = profile ~quick in
  let stmt_budget = ref (Rng.range rng 1 prof.max_stmts) in
  let sid = ref 0 in
  let n_arrays = Rng.range rng 1 prof.max_arrays in
  let arrays =
    ("A", 2)
    :: (if n_arrays >= 2 then [ ("B", Rng.pick rng [ 1; 2; 2; 3 ]) ] else [])
    @ (if n_arrays >= 3 then [ ("C", Rng.pick rng [ 1; 2 ]) ] else [])
  in
  let ref_for vars (name, rank) =
    let subs = List.init rank (fun _ -> subscript rng vars) in
    (F.ref_ name (List.map fst subs), List.concat_map snd subs)
  in
  let mentions_primary (lhs : F.ref_) rhs =
    String.equal lhs.F.array "A"
    || List.exists (fun (r : F.ref_) -> String.equal r.array "A") (F.reads rhs)
  in
  let gen_stmt vars =
    decr stmt_budget;
    let id = !sid in
    incr sid;
    let label = "S" ^ string_of_int (id + 1) in
    let lhs_arr =
      if Rng.int rng 100 < 65 then ("A", 2) else Rng.pick rng arrays
    in
    let lhs, g_lhs = ref_for vars lhs_arr in
    let guards = ref g_lhs in
    let fconst () = F.Const (Rng.pick rng [ 0.25; 0.5; 1.0; 1.5; 2.0 ]) in
    let mk_ref () =
      let r, g = ref_for vars (Rng.pick rng arrays) in
      guards := !guards @ g;
      F.Ref r
    in
    let term () =
      match Rng.int rng 10 with
      | 0 | 1 -> fconst ()
      | 2 | 3 -> F.Bin (F.Fmul, fconst (), mk_ref ())
      | 4 -> F.Bin (F.Fmul, mk_ref (), mk_ref ())
      | _ -> mk_ref ()
    in
    let addsub () = if Rng.int rng 4 = 0 then F.Fsub else F.Fadd in
    let rhs =
      match Rng.int rng 10 with
      | 0 | 1 | 2 | 3 | 4 ->
        (* accumulation: reads its own left-hand side *)
        F.Bin (addsub (), F.Ref lhs, term ())
      | 5 | 6 | 7 -> term ()
      | _ -> F.Bin (addsub (), term (), term ())
    in
    let rhs =
      (* keep shackles of A available: nearly every statement touches A *)
      if mentions_primary lhs rhs || Rng.int rng 100 >= 90 then rhs
      else begin
        let r, g = ref_for vars ("A", 2) in
        guards := !guards @ g;
        F.Bin (F.Fadd, rhs, F.Ref r)
      end
    in
    (* occasionally narrow the domain with a gratuitous guard *)
    if vars <> [] && Rng.int rng 100 < 15 then begin
      let v = E.Var (Rng.pick rng vars) in
      let extra =
        match Rng.int rng 5 with
        | 0 -> Ast.guard v Ast.Le (E.simplify (E.Sub (E.Var "N", E.Const 1)))
        | 1 -> Ast.guard v Ast.Ge (E.Const 2)
        | 2 -> Ast.guard v Ast.Lt (E.Var "N")
        | 3 when List.length vars >= 2 ->
          Ast.guard v Ast.Le (E.Var (Rng.pick rng vars))
        | _ -> Ast.guard v Ast.Eq (E.Const 2)
      in
      guards := !guards @ [ extra ]
    end;
    let s = Ast.Stmt { Ast.id; label; lhs; rhs } in
    match dedup_guards !guards with [] -> s | gs -> Ast.If (gs, [ s ])
  in
  let gen_bound_lo vars =
    match Rng.int rng 10 with
    | 0 | 1 when vars <> [] -> E.Var (Rng.pick rng vars)
    | 2 -> E.Const 2
    | _ -> E.Const 1
  and gen_bound_hi vars =
    match Rng.int rng 10 with
    | 0 | 1 when vars <> [] -> E.Var (Rng.pick rng vars)
    | 2 -> E.Sub (E.Var "N", E.Const 1)
    | 3 -> E.Const 2
    | _ -> E.Var "N"
  in
  let rec items depth vars avail =
    if !stmt_budget <= 0 then []
    else begin
      let n_items = Rng.range rng 1 2 in
      List.concat
        (List.init n_items (fun _ ->
             if !stmt_budget <= 0 then []
             else if
               depth < prof.max_depth && avail <> []
               && Rng.int rng 100 < (if depth = 0 then 85 else 45)
             then [ gen_loop depth vars avail ]
             else [ gen_stmt vars ]))
    end
  and gen_loop depth vars avail =
    let var = List.hd avail in
    let lo = gen_bound_lo vars and hi = gen_bound_hi vars in
    let inner = vars @ [ var ] in
    let body =
      match items (depth + 1) inner (List.tl avail) with
      | [] -> [ gen_stmt inner ] (* loops are never empty *)
      | body -> body
    in
    Ast.Loop { Ast.var; lo; hi; body }
  in
  let body =
    match items 0 [] [ "I"; "J"; "K" ] with
    | [] -> [ gen_stmt [] ]
    | body -> body
  in
  let prog =
    { Ast.p_name = "fuzzed";
      params = [ "N" ];
      arrays =
        List.map
          (fun (a_name, rank) ->
            { Ast.a_name; extents = List.init rank (fun _ -> E.Var "N") })
          arrays;
      body }
  in
  assert (Ast.arity_ok prog);
  prog

(* ------------------------------------------------------------------ *)
(* Constraint systems                                                  *)
(* ------------------------------------------------------------------ *)

let var_names = [| "x"; "y"; "z"; "w"; "u"; "v" |]

(* The box every sampled variable is confined to: [-bound, bound]. *)
let bound = 4

let system rng ~dim =
  if dim < 1 || dim > Array.length var_names then invalid_arg "Gen.system: dim";
  let names = Array.init dim (fun i -> var_names.(i)) in
  let k = Rng.range rng 1 4 in
  let cs =
    List.init k (fun _ ->
        let coeffs = List.init dim (fun _ -> Rng.range rng (-3) 3) in
        let const = Rng.range rng (-6) 6 in
        let a = A.of_ints coeffs const in
        if Rng.int rng 4 = 0 then C.eq a else C.ge a)
  in
  let box =
    List.concat
      (List.init dim (fun i ->
           [ C.ge_of (A.var dim i) (A.of_int dim (-bound));
             C.le_of (A.var dim i) (A.of_int dim bound) ]))
  in
  S.make names (cs @ box)
