type t = { dim : int; names : string array; cs : Constr.t list }

let make names cs =
  let dim = Array.length names in
  List.iter
    (fun c ->
      if Constr.dim c <> dim then
        invalid_arg "System.make: constraint dimension mismatch")
    cs;
  { dim; names; cs }

let universe names = make names []
let dim s = s.dim
let names s = s.names
let constraints s = s.cs

let add s c =
  if Constr.dim c <> s.dim then invalid_arg "System.add: dimension mismatch";
  { s with cs = c :: s.cs }

let add_list s cs = List.fold_left add s cs

let extend s extra =
  let names = Array.append s.names extra in
  let dim = Array.length names in
  { dim; names; cs = List.map (fun c -> Constr.extend c dim) s.cs }

let rename_into s perm target =
  let cs = List.map (fun c -> Constr.rename c perm target.dim) s.cs in
  { target with cs = cs @ target.cs }

let satisfied_by s env = List.for_all (fun c -> Constr.satisfied_by c env) s.cs

let satisfied_by_ints s env =
  satisfied_by s (Array.map Bigint.of_int env)

let pp fmt s =
  Format.fprintf fmt "@[<v 2>{ %a :@ %a }@]"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
       Format.pp_print_string)
    (Array.to_list s.names)
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.fprintf fmt " and@ ")
       (Constr.pp s.names))
    s.cs
