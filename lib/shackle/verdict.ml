module Dep = Dependence.Dep

type witness = { dep : Dep.t; level : int }

type t = Legal | Illegal of witness | Unknown of string

let is_legal = function Legal -> true | Illegal _ | Unknown _ -> false

let to_string = function
  | Legal -> "legal"
  | Illegal _ -> "illegal"
  | Unknown reason -> "unknown:" ^ reason

let pp fmt = function
  | Legal -> Format.pp_print_string fmt "legal"
  | Unknown reason ->
    Format.fprintf fmt "unknown (solver gave up: %s) — treated as illegal"
      reason
  | Illegal w ->
    Format.fprintf fmt "@[<v>illegal:@,  level %d: %a@]" w.level Dep.pp w.dep
