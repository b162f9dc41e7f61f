module Ast = Loopir.Ast
module E = Loopir.Expr
module Fexpr = Loopir.Fexpr
module Dom = Loopir.Domain
module Spec = Shackle.Spec
module Blocking = Shackle.Blocking
module A = Polyhedra.Affine
module C = Polyhedra.Constr
module S = Polyhedra.System
module Fm = Polyhedra.Fm
module Omega = Polyhedra.Omega
module B = Bigint
module Stages = Loopir.Stages

type info = {
  stmt : Ast.stmt;
  names : string array;  (* params ++ t-coords ++ loop vars (outer first) *)
  pc : int;              (* parameter count *)
  m : int;               (* block-coordinate count *)
  depth : int;           (* loop depth *)
  sys : S.t;             (* the statement's full shackled system F_S *)
  solver : Omega.Ctx.t;  (* context charged for all pruning queries *)
  bounds : (int, (E.t * (B.t * A.t) list) * (E.t * (B.t * A.t) list)) Hashtbl.t;
      (* per space variable: ((lower expr, pruned lower pieces),
                              (upper expr, pruned upper pieces)) *)
}

let dim_of info = Array.length info.names

(* ------------------------------------------------------------------ *)
(* Building F_S                                                        *)
(* ------------------------------------------------------------------ *)

(* The index of the variable named [n] in [names]. *)
let lookup_in names n =
  let dim = Array.length names in
  let rec find j =
    if j >= dim then None
    else if String.equal names.(j) n then Some j
    else find (j + 1)
  in
  find 0

let build_info ~solver prog spec coord_names (ctx, (stmt : Ast.stmt)) =
  let params = prog.Ast.params in
  let pc = List.length params in
  let m = List.length coord_names in
  let loops = Ast.loop_vars ctx in
  let names = Array.of_list (params @ coord_names @ loops) in
  let dim = Array.length names in
  let stmt_space = Dom.space_of prog ctx in
  let stmt_dim = Array.length stmt_space.Dom.names in
  let perm =
    Array.init stmt_dim (fun i -> if i < pc then i else pc + m + (i - pc))
  in
  let domain = S.rename_into (Dom.domain_of prog ctx) perm (S.universe names) in
  let extent_affs_of (f : Spec.factor) =
    let decl =
      List.find
        (fun (d : Ast.array_decl) ->
          String.equal d.a_name f.Spec.blocking.Blocking.array)
        prog.Ast.arrays
    in
    List.map
      (fun e ->
        match E.to_affine ~lookup:(lookup_in names) ~dim e with
        | Some a -> a
        | None -> raise (Dom.Not_affine (E.to_string e)))
      decl.extents
  in
  let _, membership =
    List.fold_left
      (fun (offset, acc) (f : Spec.factor) ->
        let r = Spec.choice_for f stmt in
        let point =
          List.map (fun a -> A.rename a perm dim) (Dom.access stmt_space r)
        in
        let nb = Blocking.coords_dim f.Spec.blocking in
        let coord_vars = List.init nb (fun i -> pc + offset + i) in
        ( offset + nb,
          acc
          @ Blocking.membership_constraints f.Spec.blocking ~point ~coord_vars
          @ Blocking.range_constraints f.Spec.blocking
              ~extent_affs:(extent_affs_of f) ~coord_vars ))
      (0, []) spec
  in
  let sys = Fm.compress (S.add_list domain membership) in
  { stmt; names; pc; m; depth = List.length loops; sys; solver;
    bounds = Hashtbl.create 8 }

(* ------------------------------------------------------------------ *)
(* Per-variable bounds with redundant-piece pruning                    *)
(* ------------------------------------------------------------------ *)

(* Drop pieces that are implied by the remaining ones in the context of the
   projected system (e.g. the original "i >= 2" under "i >= t2+1, t2 >= 1"),
   so the emitted min/max are as small as the paper's figures.  [outer] is
   the exact context for the outer variables: the projection of the system
   along x, not just the constraints that happen to omit x.  It is forced
   only when a list has a second piece to test against. *)
let prune_pieces ~solver proj k ~outer ~is_lower pieces =
  let dim = S.dim proj in
  let x = A.var dim k in
  let piece_constr (coef, form) =
    if is_lower then C.ge_of (A.scale coef x) form
    else C.le_of (A.scale coef x) form
  in
  let violates (coef, form) =
    if is_lower then C.lt_of (A.scale coef x) form
    else C.gt_of (A.scale coef x) form
  in
  let rec go kept = function
    | [] -> List.rev kept
    | p :: rest ->
      let others = List.rev_append kept rest in
      if others = [] then go (p :: kept) rest
      else begin
        let sys =
          S.make (S.names proj)
            (Lazy.force outer @ List.map piece_constr others @ [ violates p ])
        in
        if Omega.satisfiable ~ctx:solver sys then go (p :: kept) rest
        else go kept rest
      end
  in
  go [] pieces

let piece_to_expr names ~is_lower (coef, form) =
  let e = E.of_affine ~names form in
  if B.equal coef B.one then e
  else begin
    let c = B.to_int_exn coef in
    if is_lower then E.CeilDiv (e, c) else E.FloorDiv (e, c)
  end

let bounds_for info k =
  match Hashtbl.find_opt info.bounds k with
  | Some b -> b
  | None ->
    let dim = dim_of info in
    let inner = List.init (dim - k - 1) (fun i -> k + 1 + i) in
    let proj = Fm.eliminate_list info.sys inner in
    let lowers, uppers = Fm.bounds_of proj k in
    let as_pairs =
      List.map (fun (b : Fm.bound) -> (b.Fm.coef, b.Fm.form))
    in
    (* one projection along k for both lists *)
    let outer = lazy (S.constraints (Fm.eliminate proj k)) in
    let lowers =
      prune_pieces ~solver:info.solver proj k ~outer ~is_lower:true
        (as_pairs lowers)
    in
    let uppers =
      prune_pieces ~solver:info.solver proj k ~outer ~is_lower:false
        (as_pairs uppers)
    in
    if lowers = [] || uppers = [] then
      failwith
        (Printf.sprintf "Codegen.Tighten: variable %s of %s is unbounded"
           info.names.(k) info.stmt.Ast.label);
    let le =
      Stages.fold_expr
        (E.max_list (List.map (piece_to_expr info.names ~is_lower:true) lowers))
    in
    let ue =
      Stages.fold_expr
        (E.min_list (List.map (piece_to_expr info.names ~is_lower:false) uppers))
    in
    let b = ((le, lowers), (ue, uppers)) in
    Hashtbl.add info.bounds k b;
    b

(* ------------------------------------------------------------------ *)
(* Guard reconstruction                                                *)
(* ------------------------------------------------------------------ *)

(* Render [aff >= 0] as [positive part >= negated negative part] for
   readability. *)
let constr_to_guard names (c : C.t) =
  let dim = A.dim c.aff in
  let pos = ref (A.zero dim) and neg = ref (A.zero dim) in
  for i = 0 to dim - 1 do
    let co = A.coeff c.aff i in
    if B.sign co > 0 then pos := A.set_coeff !pos i co
    else if B.sign co < 0 then neg := A.set_coeff !neg i (B.neg co)
  done;
  let cst = A.const_of c.aff in
  if B.sign cst > 0 then pos := A.add_const !pos cst
  else if B.sign cst < 0 then neg := A.add_const !neg (B.neg cst);
  let lhs = E.of_affine ~names !pos and rhs = E.of_affine ~names !neg in
  match c.kind with
  | C.Ge -> Ast.guard lhs Ast.Ge rhs
  | C.Eq -> Ast.guard lhs Ast.Eq rhs

(* ------------------------------------------------------------------ *)
(* Union-bound pruning                                                 *)
(*                                                                     *)
(* A loop shared by several statements gets the union of their ranges: *)
(* min of the lower bounds, max of the uppers.  Many pieces are        *)
(* dominated under the constraints already established by outer loops  *)
(* (e.g. min(t1, 1) = 1 once t1 >= 1); we prove domination with the    *)
(* Omega test and drop them.                                           *)
(* ------------------------------------------------------------------ *)

(* The context is a list of one-sided facts (var, expr, is_lower) collected
   from already-emitted loops with unambiguous affine bounds. *)
type ctx_fact = string * E.t * bool

let ctx_le ~solver (ctx : ctx_fact list) names a b =
  let dim = Array.length names in
  let lookup = lookup_in names in
  match (E.to_affine ~lookup ~dim a, E.to_affine ~lookup ~dim b) with
  | Some fa, Some fb ->
    let cs =
      List.filter_map
        (fun (v, e, is_lower) ->
          match (lookup v, E.to_affine ~lookup ~dim e) with
          | Some vi, Some fe ->
            Some
              (if is_lower then C.ge_of (A.var dim vi) fe
               else C.le_of (A.var dim vi) fe)
          | _ -> None)
        ctx
    in
    Omega.implies ~ctx:solver (S.make names cs) (C.le_of fa fb)
  | _ -> false

(* B <= A for lower-bound pieces: every max-arg of B is below some max-arg
   of A. *)
let piece_le ~solver ctx names b a =
  List.for_all
    (fun bb ->
      List.exists (fun aa -> ctx_le ~solver ctx names bb aa) (E.max_args a))
    (E.max_args b)

(* B >= A for upper-bound pieces. *)
let piece_ge ~solver ctx names b a =
  List.for_all
    (fun bb ->
      List.exists (fun aa -> ctx_le ~solver ctx names aa bb) (E.min_args a))
    (E.min_args b)

let prune_union ~keep_if_dominates ctx names pieces =
  let rec go kept = function
    | [] -> List.rev kept
    | p :: rest ->
      let others = List.rev_append kept rest in
      if List.exists (fun q -> keep_if_dominates ctx names q p) others then
        go kept rest
      else go (p :: kept) rest
  in
  go [] pieces

(* ------------------------------------------------------------------ *)
(* The generator                                                       *)
(* ------------------------------------------------------------------ *)

let generate ?(stages = []) ~solver prog spec =
  (match Spec.validate prog spec with
   | Ok () -> ()
   | Error e -> invalid_arg ("Codegen.Tighten.generate: " ^ e));
  let coord_names = Spec.coord_names spec in
  let m = List.length coord_names in
  let pc = List.length prog.Ast.params in
  let stmts = Ast.statements prog in
  let infos =
    List.map (fun cs -> build_info ~solver prog spec coord_names cs) stmts
  in
  let info_of id = List.find (fun i -> i.stmt.Ast.id = id) infos in
  (* (stmt id, space var) -> (lower enforced, upper enforced) *)
  let enforced : (int * int, bool * bool) Hashtbl.t = Hashtbl.create 32 in
  (* Emit a loop over the variable at space index [k] (same for every
     statement in [members]); returns the bound expressions. *)
  let emitted_bounds ctx members k =
    let names = (List.hd members).names in
    let collect proj =
      List.fold_left
        (fun acc i ->
          let e = proj (bounds_for i k) in
          if List.exists (E.equal e) acc then acc else acc @ [ e ])
        [] members
    in
    let los =
      prune_union ~keep_if_dominates:(piece_le ~solver) ctx names
        (collect (fun ((le, _), _) -> le))
    in
    let his =
      prune_union ~keep_if_dominates:(piece_ge ~solver) ctx names
        (collect (fun (_, (ue, _)) -> ue))
    in
    let lo = Stages.fold_expr (E.min_list los) in
    let hi = Stages.fold_expr (E.max_list his) in
    List.iter
      (fun i ->
        let (le, _), (ue, _) = bounds_for i k in
        (* the emitted loop enforces this statement's own bound if it is at
           least as strong; after pruning, test entailment, not equality *)
        let lo_ok = E.equal lo le || piece_le ~solver ctx names le lo in
        let hi_ok = E.equal hi ue || piece_ge ~solver ctx names ue hi in
        Hashtbl.replace enforced (i.stmt.Ast.id, k) (lo_ok, hi_ok))
      members;
    (lo, hi)
  in
  let extend_ctx ctx var (lo, hi) =
    let ctx = match E.max_args lo with [ _ ] -> (var, lo, true) :: ctx | _ -> ctx in
    match E.min_args hi with [ _ ] -> (var, hi, false) :: ctx | _ -> ctx
  in
  let rec descendants node =
    match node with
    | Ast.Stmt s -> [ info_of s.id ]
    | Ast.If (_, body) | Ast.Loop { body; _ } ->
      List.concat_map descendants body
  in
  (* Residual guards for one statement. *)
  let residual_guards info =
    let dim = dim_of info in
    let e_s = ref [] in
    for k = pc to dim - 1 do
      match Hashtbl.find_opt enforced (info.stmt.Ast.id, k) with
      | None -> ()
      | Some (lo_ok, hi_ok) ->
        let (_, lows), (_, ups) = bounds_for info k in
        let x = A.var dim k in
        if lo_ok then
          e_s :=
            List.map (fun (c, f) -> C.ge_of (A.scale c x) f) lows @ !e_s;
        if hi_ok then
          e_s := List.map (fun (c, f) -> C.le_of (A.scale c x) f) ups @ !e_s
    done;
    let candidates = S.constraints info.sys in
    let rec prune kept = function
      | [] -> List.rev kept
      | g :: rest ->
        let context =
          S.make info.names (!e_s @ List.rev_append kept rest)
        in
        if Omega.implies ~ctx:info.solver context g then prune kept rest
        else prune (g :: kept) rest
    in
    prune [] candidates
  in
  (* Rebuild the original structure under the block loops. *)
  let rec build ctx node =
    match node with
    | Ast.Stmt s ->
      let info = info_of s.id in
      let gs = List.map (constr_to_guard info.names) (residual_guards info) in
      if gs = [] then [ node ] else [ Ast.If (gs, [ node ]) ]
    | Ast.If (_, body) ->
      (* original guards live in F_S; re-emitted per statement if needed *)
      List.concat_map (build ctx) body
    | Ast.Loop l -> (
      match descendants node with
      | [] -> [] (* a loop that holds no statement generates nothing *)
      | i :: _ as members ->
        let k =
          (* position of this loop among the enclosing loops of any member *)
          let rec find j =
            if j >= Array.length i.names then
              invalid_arg "Tighten: loop variable not in space"
            else if String.equal i.names.(j) l.var then j
            else find (j + 1)
          in
          find (pc + m)
        in
        let lo, hi = emitted_bounds ctx members k in
        let ctx' = extend_ctx ctx l.var (lo, hi) in
        [ Ast.Loop { l with lo; hi; body = List.concat_map (build ctx') l.body } ])
  in
  (* Parameters are at least 1; block loops come first (they contain every
     statement). *)
  let ctx0 =
    List.map (fun p -> (p, E.Const 1, true)) prog.Ast.params
  in
  let ctx, block_loops =
    List.fold_left
      (fun (ctx, acc) (i, name) ->
        let bounds = emitted_bounds ctx infos (pc + i) in
        (extend_ctx ctx name bounds, acc @ [ (name, bounds) ]))
      (ctx0, [])
      (List.mapi (fun i n -> (i, n)) coord_names)
  in
  let inner = List.concat_map (build ctx) prog.Ast.body in
  let body =
    List.fold_right
      (fun (name, (lo, hi)) acc -> [ Ast.loop name lo hi acc ])
      block_loops inner
  in
  let result =
    { prog with Ast.p_name = prog.Ast.p_name ^ "_shackled"; body }
  in
  (* The post-pass is the staged pipeline: guard hoisting and degenerate
     collapse exactly as before (golden output is byte-identical), plus any
     caller-composed stages (e.g. the --stages flag). *)
  Stages.run (Stages.tighten_pipeline @ stages) result

let stats prog =
  let loops = ref 0 and guards = ref 0 in
  let rec go = function
    | Ast.Stmt _ -> ()
    | Ast.If (gs, body) ->
      guards := !guards + List.length gs;
      List.iter go body
    | Ast.Loop l ->
      incr loops;
      List.iter go l.body
  in
  List.iter go prog.Ast.body;
  (!loops, !guards)
