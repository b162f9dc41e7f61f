(* Solver-free entailment over index expressions.

   Specialization runs once per sweep size, so it must not touch Omega: the
   whole point of [Pipeline.specialize] is one solver derivation per
   (kernel, spec) across an entire N sweep.  This module proves facts of the
   form [e >= 0 for every valuation consistent with the enclosing loop
   bounds] purely structurally:

   - expressions are linearized into (constant, variable coefficients,
     non-affine atoms), where an atom is a whole [Min]/[Max]/[FloorDiv]/
     [CeilDiv] subtree compared structurally — identical atoms on both
     sides of an inequality cancel exactly;
   - [Min]/[Max] atoms case-split: min(a,b) always equals one of its arms,
     so proving the goal under both substitutions proves it outright;
   - division atoms are replaced by their worst-case rational bound
     (floor(a/k) is between (a-k+1)/k and a/k) after clearing the
     denominator;
   - residual variables are eliminated innermost-first against the bound
     facts supplied by the caller (a loop's bounds only mention outer
     variables, so elimination terminates).

   Everything is fueled; running out of fuel answers [false] ("not proved"),
   never a wrong [true] — callers only ever use a positive answer to drop a
   guard or a dominated bound piece. *)

module E = Expr
module SM = Map.Make (String)

type fact = { var : string; lo : E.t option; hi : E.t option }

let fact ?lo ?hi var = { var; lo; hi }

(* ------------------------------------------------------------------ *)
(* Linear forms                                                        *)
(* ------------------------------------------------------------------ *)

type lin = { const : int; coeffs : int SM.t; atoms : (int * E.t) list }

let zero = { const = 0; coeffs = SM.empty; atoms = [] }
let of_const n = { zero with const = n }

let add_atom l c a =
  if c = 0 then l
  else
    let rec go acc = function
      | [] -> List.rev ((c, a) :: acc)
      | (c', a') :: rest ->
        if E.equal a a' then
          let c'' = c + c' in
          List.rev_append acc (if c'' = 0 then rest else (c'', a') :: rest)
        else go ((c', a') :: acc) rest
    in
    { l with atoms = go [] l.atoms }

let scale k l =
  if k = 0 then zero
  else if k = 1 then l
  else
    { const = k * l.const;
      coeffs = SM.map (fun c -> k * c) l.coeffs;
      atoms = List.map (fun (c, a) -> (k * c, a)) l.atoms }

let add a b =
  let coeffs =
    SM.union
      (fun _ x y -> match x + y with 0 -> None | s -> Some s)
      a.coeffs b.coeffs
  in
  List.fold_left
    (fun l (c, at) -> add_atom l c at)
    { const = a.const + b.const; coeffs; atoms = a.atoms }
    b.atoms

let rec lin_of (e : E.t) : lin =
  match e with
  | E.Var v -> { zero with coeffs = SM.singleton v 1 }
  | E.Const n -> of_const n
  | E.Add (a, b) -> add (lin_of a) (lin_of b)
  | E.Sub (a, b) -> add (lin_of a) (scale (-1) (lin_of b))
  | E.Mul (k, a) -> scale k (lin_of a)
  | (E.FloorDiv _ | E.CeilDiv _ | E.Max _ | E.Min _) as atom ->
    add_atom zero 1 atom

(* ------------------------------------------------------------------ *)
(* The prover                                                          *)
(* ------------------------------------------------------------------ *)

(* Case splits one question may spend before it answers "not proved". *)
let fuel_per_question = 2048

(* The innermost fact variable carried by [l]; a loop's bounds mention only
   outer variables, so eliminating inside out is well-founded. *)
let innermost_fact facts l =
  List.fold_left
    (fun acc f ->
      match SM.find_opt f.var l.coeffs with
      | Some c when c <> 0 -> Some (f, c)
      | _ -> acc)
    None facts

let rec prove fuel facts (l : lin) : bool =
  if !fuel <= 0 then false
  else begin
    decr fuel;
    match l.atoms with
    | (c, atom) :: rest ->
      let l' = { l with atoms = rest } in
      (match atom with
       | E.Min (a, b) ->
         let la = add l' (scale c (lin_of a))
         and lb = add l' (scale c (lin_of b)) in
         if c < 0 then
           (* need an upper bound: min(a,b) <= a and <= b, so either arm
              relaxes soundly — prove with whichever works *)
           prove fuel facts la || prove fuel facts lb
         else
           (* need a lower bound: min has none below both arms, but its
              value is always one of them — prove both cases *)
           prove fuel facts la && prove fuel facts lb
       | E.Max (a, b) ->
         let la = add l' (scale c (lin_of a))
         and lb = add l' (scale c (lin_of b)) in
         if c > 0 then
           (* need a lower bound: max(a,b) >= a and >= b *)
           prove fuel facts la || prove fuel facts lb
         else prove fuel facts la && prove fuel facts lb
       | E.FloorDiv (a, k) when k > 0 ->
         (* (a-k+1)/k <= floor(a/k) <= a/k; take the worst arm for the sign
            of [c] and clear the denominator. *)
         let la = scale c (lin_of a) in
         let repl = if c > 0 then add la (of_const (c * (1 - k))) else la in
         prove fuel facts (add (scale k l') repl)
       | E.CeilDiv (a, k) when k > 0 ->
         (* a/k <= ceil(a/k) <= (a+k-1)/k *)
         let la = scale c (lin_of a) in
         let repl = if c > 0 then la else add la (of_const (c * (k - 1))) in
         prove fuel facts (add (scale k l') repl)
       | _ -> false)
    | [] ->
      if SM.is_empty l.coeffs then l.const >= 0
      else begin
        match innermost_fact facts l with
        | None -> false
        | Some (f, c) ->
          (* c*v >= c*lo when c > 0 (resp. <= c*hi when c < 0): replacing
             the variable by its bound only lowers the form. *)
          let bound = if c > 0 then f.lo else f.hi in
          (match bound with
           | None -> false
           | Some be ->
             let l' = { l with coeffs = SM.remove f.var l.coeffs } in
             prove fuel facts (add l' (scale c (lin_of be))))
      end
  end

let le facts a b = prove (ref fuel_per_question) facts (lin_of (E.Sub (b, a)))
let ge facts a b = le facts b a
let eq facts a b = le facts a b && le facts b a

(* The difference [a - b] as an affine function of [var] alone:
   [Some (c, d)] when a - b = c*var + d exactly (after structural atom
   cancellation), with no other variables or atoms left. *)
let affine_delta_in ~var a b =
  let d = add (lin_of a) (scale (-1) (lin_of b)) in
  if d.atoms <> [] then None
  else
    match SM.bindings d.coeffs with
    | [] -> Some (0, d.const)
    | [ (v, c) ] when String.equal v var -> Some (c, d.const)
    | _ -> None
