module Ast = Loopir.Ast
module Fexpr = Loopir.Fexpr
module Domain = Loopir.Domain
module A = Polyhedra.Affine
module C = Polyhedra.Constr
module S = Polyhedra.System
module Omega = Polyhedra.Omega

type kind = Flow | Anti | Output

type pair_space = {
  names : string array;
  param_count : int;
  src_depth : int;
  dst_depth : int;
}

type t = {
  kind : kind;
  src : Ast.stmt;
  src_ctx : Ast.context;
  dst : Ast.stmt;
  dst_ctx : Ast.context;
  src_ref : Fexpr.ref_;
  dst_ref : Fexpr.ref_;
  space : pair_space;
  disjuncts : S.t list;
}

let src_var sp k = sp.param_count + k
let dst_var sp k = sp.param_count + sp.src_depth + k

let make_pair_space (prog : Ast.program) c1 c2 =
  let sv = Ast.loop_vars c1 and dv = Ast.loop_vars c2 in
  let names =
    Array.of_list
      (prog.params
      @ List.map (fun v -> "s." ^ v) sv
      @ List.map (fun v -> "d." ^ v) dv)
  in
  { names;
    param_count = List.length prog.params;
    src_depth = List.length sv;
    dst_depth = List.length dv }

(* Renaming permutation from a statement space (params ++ loops) into the
   pair space. *)
let perm_into sp ~dst stmt_space_size =
  Array.init stmt_space_size (fun i ->
      if i < sp.param_count then i
      else if dst then dst_var sp (i - sp.param_count)
      else src_var sp (i - sp.param_count))

(* Longest common prefix of enclosing loops and the textual order of the two
   statements at their divergence point. *)
let common_loops c1 c2 =
  let entries, (i1, i2) = Ast.common_prefix c1 c2 in
  let c =
    List.length
      (List.filter (function Ast.Eloop _ -> true | Ast.Eif _ -> false) entries)
  in
  (c, i1 < i2)

let dedup_refs refs =
  List.fold_left
    (fun acc r ->
      if List.exists (fun r' -> Fexpr.ref_equal r r') acc then acc
      else r :: acc)
    [] refs
  |> List.rev

let analyze ?(params = []) ~ctx (prog : Ast.program) =
  let stmts = Ast.statements prog in
  let param_positive sp =
    List.init sp.param_count (fun i ->
        let v = A.var (Array.length sp.names) i in
        match List.assoc_opt sp.names.(i) params with
        | Some value -> C.eq_of v (A.const (Array.length sp.names) (Bigint.of_int value))
        | None -> C.ge_of v (A.of_int (Array.length sp.names) 1))
  in
  let deps = ref [] in
  List.iter
    (fun (c1, (s1 : Ast.stmt)) ->
      List.iter
        (fun (c2, (s2 : Ast.stmt)) ->
          let sp = make_pair_space prog c1 c2 in
          let dim = Array.length sp.names in
          let sp1 = Domain.space_of prog c1 and sp2 = Domain.space_of prog c2 in
          let perm1 = perm_into sp ~dst:false (Array.length sp1.Domain.names) in
          let perm2 = perm_into sp ~dst:true (Array.length sp2.Domain.names) in
          let base =
            S.universe sp.names
            |> (fun t -> S.add_list t (param_positive sp))
            |> S.rename_into (Domain.domain_of prog c1) perm1
            |> S.rename_into (Domain.domain_of prog c2) perm2
          in
          let c, textual_before = common_loops c1 c2 in
          let precedence_disjuncts =
            let eqs k =
              List.init k (fun j ->
                  C.eq_of (A.var dim (src_var sp j)) (A.var dim (dst_var sp j)))
            in
            let strict k =
              C.lt_of (A.var dim (src_var sp k)) (A.var dim (dst_var sp k))
            in
            List.init c (fun k -> eqs k @ [ strict k ])
            @ (if textual_before then [ eqs c ] else [])
          in
          let refs1 =
            (s1.lhs, true)
            :: List.map (fun r -> (r, false)) (dedup_refs (Fexpr.reads s1.rhs))
          in
          let refs2 =
            (s2.lhs, true)
            :: List.map (fun r -> (r, false)) (dedup_refs (Fexpr.reads s2.rhs))
          in
          List.iter
            (fun (r1, w1) ->
              List.iter
                (fun ((r2 : Fexpr.ref_), w2) ->
                  if String.equal r1.Fexpr.array r2.array && (w1 || w2) then begin
                    let kind =
                      if w1 && w2 then Output else if w1 then Flow else Anti
                    in
                    let acc1 =
                      List.map (fun a -> A.rename a perm1 dim)
                        (Domain.access sp1 r1)
                    in
                    let acc2 =
                      List.map (fun a -> A.rename a perm2 dim)
                        (Domain.access sp2 r2)
                    in
                    let same_cell = List.map2 C.eq_of acc1 acc2 in
                    let with_conflict = S.add_list base same_cell in
                    let disjuncts =
                      List.filter_map
                        (fun prec ->
                          let sys = S.add_list with_conflict prec in
                          if Omega.satisfiable ~ctx sys then Some sys else None)
                        precedence_disjuncts
                    in
                    if disjuncts <> [] then
                      deps :=
                        { kind; src = s1; src_ctx = c1; dst = s2; dst_ctx = c2;
                          src_ref = r1; dst_ref = r2; space = sp; disjuncts }
                        :: !deps
                  end)
                refs2)
            refs1)
        stmts)
    stmts;
  List.rev !deps

let kind_string = function Flow -> "flow" | Anti -> "anti" | Output -> "output"

let pp fmt d =
  Format.fprintf fmt "%s: %s[%a] -> %s[%a] (%d case%s)" (kind_string d.kind)
    d.src.Ast.label Fexpr.pp_ref d.src_ref d.dst.Ast.label Fexpr.pp_ref
    d.dst_ref (List.length d.disjuncts)
    (if List.length d.disjuncts = 1 then "" else "s")
