module Ast = Loopir.Ast
module Fexpr = Loopir.Fexpr

(* Arrays referenced by every statement can be blocked without dummy
   references. *)
let default_arrays prog =
  let stmts = Ast.statements prog in
  let arrays_of (s : Ast.stmt) =
    List.sort_uniq String.compare
      (List.map
         (fun (r : Fexpr.ref_) -> r.array)
         (s.lhs :: Fexpr.reads s.rhs))
  in
  match stmts with
  | [] -> []
  | (_, s0) :: rest ->
    List.filter
      (fun a ->
        List.for_all (fun (_, s) -> List.mem a (arrays_of s)) rest
        (* rank-2 arrays only: blocks_2d *)
        && (match
              List.find_opt
                (fun (d : Ast.array_decl) -> String.equal d.a_name a)
                prog.arrays
            with
           | Some d -> List.length d.extents = 2
           | None -> false))
      (arrays_of s0)

let singles prog ~arrays ~blockings =
  List.concat_map
    (fun array ->
      let choices = Legality.enumerate_choices prog ~array in
      List.concat_map
        (fun blocking ->
          List.map (fun ch -> [ Spec.factor blocking ch ]) choices)
        (blockings array))
    arrays
