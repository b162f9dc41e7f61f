module Ast = Loopir.Ast
module Fexpr = Loopir.Fexpr
module Dom = Loopir.Domain
module Dep = Dependence.Dep
module A = Polyhedra.Affine
module C = Polyhedra.Constr
module S = Polyhedra.System
module Omega = Polyhedra.Omega

(* The verdict type lives in {!Verdict} so every layer (pipeline, tuner,
   daemon protocol) shares one definition; re-exporting the constructors
   keeps [Legality.Legal] et al. valid. *)
type violation = Verdict.witness = { dep : Dep.t; level : int }

type verdict = Verdict.t =
  | Legal
  | Illegal of violation list
  | Unknown of string

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

exception Stop

(* All (dependence, disjunct, level) systems, in order.  With [stop_early]
   the search aborts at the first satisfiable one — enough for a yes/no
   verdict and much cheaper on illegal shackles, whose remaining systems
   (often the expensive unsatisfiable ones) need not be decided at all.
   Also returns the reason of the first budget-exhausted query, if any: a
   violation is only recorded for a system the solver *proved* satisfiable,
   so with a bounded context the outcome is (violations, gave_up) and the
   caller distinguishes "proved illegal" from "could not decide". *)
let violations_of ~ctx ~stop_early prog spec deps =
  let m = Spec.coords_dim spec in
  let violations = ref [] in
  let gave_up = ref None in
  (try
     List.iter
       (fun (d : Dep.t) ->
         List.iter
           (fun ps ->
             let dim = S.dim ps.ps_system in
             let src_base = ps.ps_src_base and dst_base = ps.ps_dst_base in
             let violated_at k =
               (* zd_j = zs_j for j < k, and zd_k < zs_k *)
               List.init k (fun j ->
                   C.eq_of (A.var dim (dst_base + j)) (A.var dim (src_base + j)))
               @ [ C.lt_of (A.var dim (dst_base + k)) (A.var dim (src_base + k)) ]
             in
             for k = 0 to m - 1 do
               if
                 not
                   (List.exists (fun v -> v.dep == d && v.level = k) !violations)
               then
                 match
                   Omega.decide ~ctx (S.add_list ps.ps_system (violated_at k))
                 with
                 | Omega.Sat ->
                   violations := { dep = d; level = k } :: !violations;
                   if stop_early then raise Stop
                 | Omega.Unsat -> ()
                 | Omega.Unknown reason ->
                   (* undecided is not a proof of violation; remember that the
                      verdict is degraded and move on *)
                   if !gave_up = None then gave_up := Some reason
             done)
           (block_pair_systems prog spec d))
       deps
   with Stop -> ());
  (List.rev !violations, !gave_up)

let rec check_deps ~ctx prog spec deps =
  (* Fast path (Section 6 of the paper): a product of shackles that are each
     legal by themselves is always legal.  Check factors individually first;
     only a product with an illegal factor needs the full lexicographic
     test, because an outer factor can carry the dependence that troubles an
     inner one.  With a caching [ctx] this path is also where the memo
     table earns its keep: products share factors, so their per-factor
     systems repeat across candidates. *)
  if List.length spec > 1
     && List.for_all (fun f -> check_deps ~ctx prog [ f ] deps = Legal) spec
  then Legal
  else
    match violations_of ~ctx ~stop_early:false prog spec deps with
    | [], None -> Legal
    | [], Some reason -> Unknown reason
    | vs, _ -> Illegal vs

(* Three-valued yes/no with precomputed dependences: [Illegal] only on a
   proved violation, [Unknown] when the budget ran out before all systems
   were refuted.  Stops at the first proved violation (so the witness list
   holds exactly the one that stopped the scan); budget-exhausted systems
   are cheap by definition (they gave up), so the scan continues past them
   looking for a definite answer. *)
let rec probe_deps ~ctx prog spec deps : Verdict.t =
  if List.length spec > 1
     && List.for_all (fun f -> probe_deps ~ctx prog [ f ] deps = Legal) spec
  then Legal
  else
    match violations_of ~ctx ~stop_early:true prog spec deps with
    | (_ :: _ as vs), _ -> Illegal vs
    | [], Some reason -> Unknown reason
    | [], None -> Legal

(* The conservative boolean collapse: only a shackle with every violation
   system *refuted* counts as legal, so [Unknown -> false] — a degraded
   verdict can reject a legal shackle but never admit an illegal one. *)
let is_legal_deps ~ctx prog spec deps =
  Verdict.is_legal (probe_deps ~ctx prog spec deps)

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

let pp_verdict = Verdict.pp
