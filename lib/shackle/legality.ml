module Ast = Loopir.Ast
module Fexpr = Loopir.Fexpr
module Dom = Loopir.Domain
module Dep = Dependence.Dep
module A = Polyhedra.Affine
module C = Polyhedra.Constr
module S = Polyhedra.System
module Omega = Polyhedra.Omega

(* Block-coordinate binding constraints for one side of a dependence.
   [perm] renames the statement space (params ++ loops) into the extended
   pair space; [base] is the index of this side's first coordinate
   variable. *)
let side_constraints prog ctx stmt spec ~dim ~perm ~base =
  let sp = Dom.space_of prog ctx in
  let _, cs =
    List.fold_left
      (fun (offset, acc) (f : Spec.factor) ->
        let r = Spec.choice_for f stmt in
        let point =
          List.map (fun a -> A.rename a perm dim) (Dom.access sp r)
        in
        let nb = Blocking.coords_dim f.Spec.blocking in
        let coord_vars = List.init nb (fun i -> base + offset + i) in
        ( offset + nb,
          acc @ Blocking.membership_constraints f.Spec.blocking ~point ~coord_vars ))
      (0, []) spec
  in
  cs

type pair_system = {
  ps_system : Polyhedra.System.t;
  ps_src_base : int;
  ps_dst_base : int;
  ps_coords : int;
  ps_params : (string * int) list;
}

(* The block-pair systems of one dependence under a spec: each disjunct of
   the dependence, extended with both sides' block-coordinate binding
   constraints.  A solution assigns source instance, destination instance,
   and the block coordinates [zs], [zd] of both — exactly the space the
   legality test quantifies over, minus any ordering constraint.  The
   scheduler probes these systems for the feasible range of [zd - zs]. *)
let block_pair_systems prog spec (d : Dep.t) =
  let m = Spec.coords_dim spec in
  let sp = d.Dep.space in
  let dim0 = Array.length sp.Dep.names in
  let dim = dim0 + (2 * m) in
  let names =
    Array.append sp.Dep.names
      (Array.init (2 * m) (fun i ->
           if i < m then "zs" ^ string_of_int (i + 1)
           else "zd" ^ string_of_int (i - m + 1)))
  in
  let src_base = dim0 and dst_base = dim0 + m in
  let perm_src =
    Array.init (sp.Dep.param_count + sp.Dep.src_depth) (fun i ->
        if i < sp.Dep.param_count then i
        else Dep.src_var sp (i - sp.Dep.param_count))
  in
  let perm_dst =
    Array.init (sp.Dep.param_count + sp.Dep.dst_depth) (fun i ->
        if i < sp.Dep.param_count then i
        else Dep.dst_var sp (i - sp.Dep.param_count))
  in
  let binding =
    side_constraints prog d.Dep.src_ctx d.Dep.src spec ~dim ~perm:perm_src
      ~base:src_base
    @ side_constraints prog d.Dep.dst_ctx d.Dep.dst spec ~dim ~perm:perm_dst
      ~base:dst_base
  in
  let params =
    List.init sp.Dep.param_count (fun i -> (sp.Dep.names.(i), i))
  in
  List.map
    (fun disjunct ->
      let extended =
        S.make names
          (List.map (fun c -> C.extend c dim) (S.constraints disjunct))
      in
      { ps_system = S.add_list extended binding;
        ps_src_base = src_base;
        ps_dst_base = dst_base;
        ps_coords = m;
        ps_params = params })
    d.Dep.disjuncts

(* Theorem 1, one question at a time: the (dependence, disjunct, level)
   systems in order, stopping at the first one the solver proves
   satisfiable — its [(dep, level)] is the witness, and the remaining
   systems (often the expensive unsatisfiable ones) need not be decided.
   A system the budget left undecided is no proof of violation, so the
   scan moves past it and remembers the first reason: with no witness,
   that reason makes the verdict [Unknown] rather than [Legal]. *)
let first_violation ~ctx prog spec deps =
  let m = Spec.coords_dim spec in
  let gave_up = ref None in
  let violated ps k =
    let dim = S.dim ps.ps_system in
    let zs j = A.var dim (ps.ps_src_base + j)
    and zd j = A.var dim (ps.ps_dst_base + j) in
    (* zd_j = zs_j for j < k, and zd_k < zs_k *)
    let order =
      List.init k (fun j -> C.eq_of (zd j) (zs j)) @ [ C.lt_of (zd k) (zs k) ]
    in
    match Omega.decide ~ctx (S.add_list ps.ps_system order) with
    | Omega.Sat -> true
    | Omega.Unsat -> false
    | Omega.Unknown reason ->
      if !gave_up = None then gave_up := Some reason;
      false
  in
  let witness =
    List.find_map
      (fun (d : Dep.t) ->
        List.find_map
          (fun ps ->
            List.find_opt (violated ps) (List.init m Fun.id)
            |> Option.map (fun level -> { Verdict.dep = d; level }))
          (block_pair_systems prog spec d))
      deps
  in
  (witness, !gave_up)

let rec probe_deps ~ctx prog spec deps =
  (* Fast path (Section 6 of the paper): a product of shackles that are each
     legal by themselves is always legal.  Check factors individually first;
     only a product with an illegal factor needs the full lexicographic
     test, because an outer factor can carry the dependence that troubles an
     inner one.  With a caching [ctx] this path is also where the memo
     table earns its keep: products share factors, so their per-factor
     systems repeat across candidates. *)
  if List.length spec > 1
     && List.for_all
          (fun f -> Verdict.is_legal (probe_deps ~ctx prog [ f ] deps))
          spec
  then Verdict.Legal
  else
    match first_violation ~ctx prog spec deps with
    | Some w, _ -> Verdict.Illegal w
    | None, Some reason -> Verdict.Unknown reason
    | None, None -> Verdict.Legal

let enumerate_choices prog ~array =
  let stmts = Ast.statements prog in
  let refs_of (s : Ast.stmt) =
    let all = s.lhs :: Fexpr.reads s.rhs in
    let on_array =
      List.filter (fun (r : Fexpr.ref_) -> String.equal r.array array) all
    in
    List.fold_left
      (fun acc r ->
        if List.exists (Fexpr.ref_equal r) acc then acc else acc @ [ r ])
      [] on_array
  in
  List.fold_left
    (fun partials (_, s) ->
      let opts = refs_of s in
      List.concat_map
        (fun partial -> List.map (fun r -> partial @ [ (s.Ast.label, r) ]) opts)
        partials)
    [ [] ] stmts
