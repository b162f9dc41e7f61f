(* The staged simplifier: named, composable program-to-program passes, each
   carrying an explicit equivalence obligation.

   Code generation used to sprinkle ad-hoc [Expr.simplify]/[subst_var] calls
   through [Codegen.Tighten]; every rewrite now lives here as a [stage] so
   pipelines are assembled by listing names, stages compose before/after one
   another freely, and each transformation states the argument for why the
   output program is equivalent to its input.

   Every stage is *trace-preserving by construction*: guards and loop bounds
   contain no array accesses, and no stage reorders, duplicates or drops a
   statement instance — so the access trace (and therefore every simulated
   cache metric) of the output is bit-identical to the input's, not merely
   the final store.  That is the property the bench [--diff-json] CI gate
   checks end to end.

   None of the stages consult Omega.  Entailment questions (is this guard
   implied by the enclosing loop bounds? is this min arm dominated?) go
   through the structural prover in {!Entail}, so running a pipeline is
   pure computation — the point of parametric specialization is one solver
   derivation per (kernel, spec) across an entire sweep of sizes. *)

module E = Expr

type stage = {
  name : string;
  obligation : string;
  apply : Ast.program -> Ast.program;
}

let run stages prog = List.fold_left (fun p (s : stage) -> s.apply p) prog stages

(* ------------------------------------------------------------------ *)
(* Expression plumbing shared by the stages                            *)
(* ------------------------------------------------------------------ *)

(* The one sanctioned expression-level simplifier: constant folding,
   neutral-element elimination, min/max flattening and dedup.  Derivation
   code (e.g. bound construction in [Codegen.Tighten]) calls this instead
   of [Expr.simplify] directly so all simplification is routed through the
   stage module. *)
let fold_expr = E.simplify

let map_node_exprs f node =
  let fg (g : Ast.guard) = { g with Ast.g_lhs = f g.Ast.g_lhs; g_rhs = f g.Ast.g_rhs } in
  let rec go = function
    | Ast.Stmt s ->
      Ast.Stmt
        { s with
          Ast.lhs = { s.Ast.lhs with Fexpr.idx = List.map f s.Ast.lhs.Fexpr.idx };
          rhs = Fexpr.map_ref_indices f s.Ast.rhs }
    | Ast.If (gs, body) -> Ast.If (List.map fg gs, List.map go body)
    | Ast.Loop l ->
      Ast.Loop { l with Ast.lo = f l.Ast.lo; hi = f l.Ast.hi; body = List.map go l.Ast.body }
  in
  go node

let map_exprs f (prog : Ast.program) =
  { prog with Ast.body = List.map (map_node_exprs f) prog.Ast.body }

(* Enclosing-bound facts.  Parameters are at least 1 by repo-wide
   convention (the same assumption [Codegen.Tighten] makes for its pruning
   context); each enclosing loop contributes [lo <= var <= hi], which holds
   on every iteration its body actually executes. *)
let param_facts (prog : Ast.program) =
  List.map (fun p -> Entail.fact ~lo:(E.Const 1) p) prog.Ast.params

let guard_holds facts (g : Ast.guard) =
  match g.Ast.g_rel with
  | Ast.Le -> Entail.le facts g.Ast.g_lhs g.Ast.g_rhs
  | Ast.Lt -> Entail.le facts (E.Add (g.Ast.g_lhs, E.Const 1)) g.Ast.g_rhs
  | Ast.Ge -> Entail.ge facts g.Ast.g_lhs g.Ast.g_rhs
  | Ast.Gt -> Entail.ge facts g.Ast.g_lhs (E.Add (g.Ast.g_rhs, E.Const 1))
  | Ast.Eq -> Entail.eq facts g.Ast.g_lhs g.Ast.g_rhs

(* ------------------------------------------------------------------ *)
(* constant-fold                                                       *)
(* ------------------------------------------------------------------ *)

let constant_fold =
  { name = "constant-fold";
    obligation =
      "Expr.simplify is value-preserving on every valuation (folding, \
       neutral elements, min/max flattening); no control structure changes.";
    apply = map_exprs fold_expr }

(* ------------------------------------------------------------------ *)
(* bound-tighten                                                       *)
(* ------------------------------------------------------------------ *)

(* Drop arguments dominated by another remaining argument (for a max: p is
   redundant when p <= q; for a min: when p >= q).  The kept/rest split
   means structural duplicates collapse to one survivor. *)
let prune_args dominated args =
  let rec go kept = function
    | [] -> List.rev kept
    | p :: rest ->
      let others = List.rev_append kept rest in
      if List.exists (fun q -> dominated p q) others then go kept rest
      else go (p :: kept) rest
  in
  go [] args

let tighten_lo facts e =
  fold_expr (E.max_list (prune_args (fun p q -> Entail.le facts p q) (E.max_args e)))

let tighten_hi facts e =
  fold_expr (E.min_list (prune_args (fun p q -> Entail.ge facts p q) (E.min_args e)))

let bound_tighten =
  let rec go facts node =
    match node with
    | Ast.Stmt _ -> node
    | Ast.If (gs, body) -> Ast.If (gs, List.map (go facts) body)
    | Ast.Loop l ->
      let lo = tighten_lo facts l.Ast.lo in
      let hi = tighten_hi facts l.Ast.hi in
      let facts' = facts @ [ Entail.fact ~lo ~hi l.Ast.var ] in
      Ast.Loop { l with Ast.lo; hi; body = List.map (go facts') l.Ast.body }
  in
  { name = "bound-tighten";
    obligation =
      "A max (min) argument is dropped only when Entail proves it <= (>=) \
       another remaining argument under the enclosing loop bounds, so the \
       bound's value is unchanged pointwise on every reached iteration.";
    apply =
      (fun prog ->
        let facts = param_facts prog in
        { prog with Ast.body = List.map (go facts) prog.Ast.body }) }

(* ------------------------------------------------------------------ *)
(* guard-entail                                                        *)
(* ------------------------------------------------------------------ *)

let guard_entail =
  let rec go facts node =
    match node with
    | Ast.Stmt _ -> [ node ]
    | Ast.If (gs, body) ->
      let body' = List.concat_map (go facts) body in
      let gs' = List.filter (fun g -> not (guard_holds facts g)) gs in
      if gs' = [] then body' else [ Ast.If (gs', body') ]
    | Ast.Loop l ->
      let facts' = facts @ [ Entail.fact ~lo:l.Ast.lo ~hi:l.Ast.hi l.Ast.var ] in
      [ Ast.Loop { l with Ast.body = List.concat_map (go facts') l.Ast.body } ]
  in
  { name = "guard-entail";
    obligation =
      "A guard is removed only when Entail proves it holds for every \
       valuation consistent with the enclosing loop bounds; on iterations \
       that execute, the guard evaluated to true, so the guarded body runs \
       in both programs (and guards touch no arrays, so the trace is \
       untouched).";
    apply =
      (fun prog ->
        let facts = param_facts prog in
        { prog with Ast.body = List.concat_map (go facts) prog.Ast.body }) }

(* ------------------------------------------------------------------ *)
(* guard-hoist                                                         *)
(* ------------------------------------------------------------------ *)

(* Move statement guards that do not depend on a loop's variable out of the
   loop (codegen emits them innermost, per statement). *)
let guard_hoist =
  let rec go node =
    match node with
    | Ast.Stmt _ -> node
    | Ast.If (gs, body) -> begin
      match List.map go body with
      | [ Ast.If (gs', body') ] -> Ast.If (gs @ gs', body')
      | body' -> Ast.If (gs, body')
    end
    | Ast.Loop l -> begin
      match List.map go l.Ast.body with
      | [ Ast.If (gs, body') ] ->
        let stays, hoists =
          List.partition
            (fun (g : Ast.guard) ->
              List.mem l.Ast.var (E.vars g.Ast.g_lhs)
              || List.mem l.Ast.var (E.vars g.Ast.g_rhs))
            gs
        in
        let inner = if stays = [] then body' else [ Ast.If (stays, body') ] in
        let loop = Ast.Loop { l with Ast.body = inner } in
        if hoists = [] then loop else go (Ast.If (hoists, [ loop ]))
      | body' -> Ast.Loop { l with Ast.body = body' }
    end
  in
  { name = "guard-hoist";
    obligation =
      "A hoisted guard mentions no variable of the loop it leaves, so it \
       evaluates identically on every iteration; guarding the whole loop \
       executes the same statement instances (a false guard means the body \
       ran zero times either way).";
    apply = (fun prog -> { prog with Ast.body = List.map go prog.Ast.body }) }

(* ------------------------------------------------------------------ *)
(* minmax-peel                                                         *)
(* ------------------------------------------------------------------ *)

(* Collect Min/Max subtrees of an expression, outermost first. *)
let rec minmax_atoms e acc =
  match e with
  | E.Var _ | E.Const _ -> acc
  | E.Add (a, b) | E.Sub (a, b) -> minmax_atoms b (minmax_atoms a acc)
  | E.Mul (_, a) | E.FloorDiv (a, _) | E.CeilDiv (a, _) -> minmax_atoms a acc
  | E.Max (a, b) | E.Min (a, b) ->
    minmax_atoms b (minmax_atoms a (acc @ [ e ]))

let rec node_minmax_atoms node acc =
  match node with
  | Ast.Stmt _ -> acc (* subscripts are affine: no min/max *)
  | Ast.If (gs, body) ->
    let acc =
      List.fold_left
        (fun acc (g : Ast.guard) ->
          minmax_atoms g.Ast.g_rhs (minmax_atoms g.Ast.g_lhs acc))
        acc gs
    in
    List.fold_left (fun acc n -> node_minmax_atoms n acc) acc body
  | Ast.Loop l ->
    let acc = minmax_atoms l.Ast.hi (minmax_atoms l.Ast.lo acc) in
    List.fold_left (fun acc n -> node_minmax_atoms n acc) acc l.Ast.body

let rec replace_expr m arm e =
  if E.equal e m then arm
  else
    match e with
    | E.Var _ | E.Const _ -> e
    | E.Add (a, b) -> E.Add (replace_expr m arm a, replace_expr m arm b)
    | E.Sub (a, b) -> E.Sub (replace_expr m arm a, replace_expr m arm b)
    | E.Mul (k, a) -> E.Mul (k, replace_expr m arm a)
    | E.FloorDiv (a, k) -> E.FloorDiv (replace_expr m arm a, k)
    | E.CeilDiv (a, k) -> E.CeilDiv (replace_expr m arm a, k)
    | E.Max (a, b) -> E.Max (replace_expr m arm a, replace_expr m arm b)
    | E.Min (a, b) -> E.Min (replace_expr m arm a, replace_expr m arm b)

let fdiv a d =
  let q = a / d and r = a mod d in
  if r <> 0 && (r < 0) <> (d < 0) then q - 1 else q

let cdiv a d = -fdiv (-a) d

(* Peel budget: splitting doubles a loop, so bound total rewrites. *)
let peel_budget = 64

(* Split loop [l] (constant range [a, b]) on the first Min/Max atom in its
   body whose arm order flips at an affine threshold of [l.var].  Returns
   the replacement node list, or None when no atom qualifies. *)
let try_peel (l : Ast.loop) =
  match (fold_expr l.Ast.lo, fold_expr l.Ast.hi) with
  | E.Const a, E.Const b when a <= b ->
    let atoms =
      List.fold_left (fun acc n -> node_minmax_atoms n acc) [] l.Ast.body
    in
    let candidate m =
      match m with
      | E.Min (p, q) | E.Max (p, q) -> begin
        match Entail.affine_delta_in ~var:l.Ast.var p q with
        | Some (c, d) when c <> 0 -> Some (m, p, q, c, d)
        | _ -> None
      end
      | _ -> None
    in
    (match List.find_map candidate atoms with
     | None -> None
     | Some (m, p, q, c, d) ->
       (* p <= q  iff  c*w + d <= 0 *)
       let arm_le, arm_gt =
         match m with
         | E.Min _ -> (p, q) (* min picks p when p <= q *)
         | _ -> (q, p)       (* max picks q when p <= q *)
       in
       let rebuild lo hi arm =
         let subst = replace_expr m arm in
         Ast.Loop
           { l with
             Ast.lo = E.Const lo;
             hi = E.Const hi;
             body = List.map (map_node_exprs subst) l.Ast.body }
       in
       if c > 0 then begin
         (* p <= q iff w <= t *)
         let t = fdiv (-d) c in
         if t >= b then Some [ rebuild a b arm_le ]
         else if t < a then Some [ rebuild a b arm_gt ]
         else Some [ rebuild a t arm_le; rebuild (t + 1) b arm_gt ]
       end
       else begin
         (* c < 0: p <= q iff w >= t *)
         let t = cdiv d (-c) in
         if t <= a then Some [ rebuild a b arm_le ]
         else if t > b then Some [ rebuild a b arm_gt ]
         else Some [ rebuild a (t - 1) arm_gt; rebuild t b arm_le ]
       end)
  | _ -> None

let minmax_peel =
  let apply prog =
    let budget = ref peel_budget in
    let rec go node =
      match node with
      | Ast.Stmt _ -> [ node ]
      | Ast.If (gs, body) -> [ Ast.If (gs, List.concat_map go body) ]
      | Ast.Loop l ->
        if !budget > 0 then begin
          match try_peel l with
          | Some nodes ->
            decr budget;
            List.concat_map go nodes
          | None -> [ Ast.Loop { l with Ast.body = List.concat_map go l.Ast.body } ]
        end
        else [ Ast.Loop { l with Ast.body = List.concat_map go l.Ast.body } ]
    in
    { prog with Ast.body = List.concat_map go prog.Ast.body }
  in
  { name = "minmax-peel";
    obligation =
      "A loop over [a,b] splits at the exact threshold where a Min/Max \
       arm's order flips (the arm difference is affine in the loop \
       variable alone), into consecutive ranges [a,t]+[t+1,b] with the atom \
       replaced by the arm it equals on that range — same iterations, same \
       order, same bound values.";
    apply }

(* ------------------------------------------------------------------ *)
(* collapse-degenerate                                                 *)
(* ------------------------------------------------------------------ *)

(* Substitute away loops whose range is the single affine point [lo]. *)
let collapse_degenerate =
  let rec go node =
    match node with
    | Ast.Stmt _ -> [ node ]
    | Ast.If (gs, body) -> [ Ast.If (gs, List.concat_map go body) ]
    | Ast.Loop l ->
      if E.equal (fold_expr l.Ast.lo) (fold_expr l.Ast.hi) then begin
        let value = fold_expr l.Ast.lo in
        let subst e = fold_expr (E.subst_var e l.Ast.var value) in
        let body = List.map (map_node_exprs subst) l.Ast.body in
        List.concat_map go body
      end
      else [ Ast.Loop { l with Ast.body = List.concat_map go l.Ast.body } ]
  in
  { name = "collapse-degenerate";
    obligation =
      "The loop's folded bounds are structurally equal, so it executes \
       exactly one iteration with var = lo; substituting that value into \
       the body preserves every statement instance and its order.";
    apply = (fun prog -> { prog with Ast.body = List.concat_map go prog.Ast.body }) }

(* ------------------------------------------------------------------ *)
(* Pipelines                                                           *)
(* ------------------------------------------------------------------ *)

let all =
  [ constant_fold;
    bound_tighten;
    guard_entail;
    guard_hoist;
    minmax_peel;
    collapse_degenerate ]

let by_name n = List.find_opt (fun s -> String.equal s.name n) all
let names () = List.map (fun s -> s.name) all

let of_names ns =
  List.map
    (fun n ->
      match by_name n with
      | Some s -> s
      | None ->
        invalid_arg
          (Printf.sprintf "Stages.of_names: unknown stage %s (have: %s)" n
             (String.concat ", " (names ()))))
    ns

(* The Tighten post-pass: exactly the rewrites the generator has always
   applied, now as named stages (golden codegen output is byte-identical). *)
let tighten_pipeline = [ guard_hoist; collapse_degenerate ]

(* Naive codegen only folds constants: its membership guards are the
   figure-5 form and must stay textually recognizable. *)
let naive_pipeline = [ constant_fold ]

(* Specialization: parameters are already constants, so fold, resolve
   min/max arms against the now-constant bounds, drop entailed guards, peel
   what remains, fold again, collapse single-iteration loops, and hoist any
   surviving loop-invariant guards.  Stages compose, so running a stage
   twice (after peeling exposes new constants) is just listing it again. *)
let specialize_pipeline =
  [ constant_fold;
    bound_tighten;
    guard_entail;
    minmax_peel;
    constant_fold;
    bound_tighten;
    guard_entail;
    collapse_degenerate;
    guard_hoist ]

let subst_params ~params =
  let f e =
    List.fold_left (fun e (n, v) -> E.subst_var e n (E.Const v)) e params
  in
  { name = "subst-params";
    obligation =
      "Each substituted name is bound to exactly that constant at \
       execution time; the program's parameter list is left intact so \
       prepared frames still reserve the slots.";
    apply = map_exprs f }

let specialize ~params prog = run (subst_params ~params :: specialize_pipeline) prog
