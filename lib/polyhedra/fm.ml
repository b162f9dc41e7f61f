module B = Bigint

type bound = { coef : B.t; form : Affine.t }

(* Split the constraints of [s] on variable [k] into lower bounds, upper
   bounds and constraints not mentioning [k].  Equalities mentioning [k] are
   split into a (lower, upper) pair. *)
let split s k =
  let lowers = ref [] and uppers = ref [] and rest = ref [] in
  let add_ineq aff =
    (* aff >= 0; look at coefficient of k *)
    let c = Affine.coeff aff k in
    let sign = B.sign c in
    if sign = 0 then rest := Constr.ge aff :: !rest
    else begin
      let form = Affine.set_coeff aff k B.zero in
      if sign > 0 then
        (* c*k + form >= 0  <=>  c*k >= -form *)
        lowers := { coef = c; form = Affine.neg form } :: !lowers
      else
        (* c*k + form >= 0 with c<0  <=>  |c|*k <= form *)
        uppers := { coef = B.neg c; form } :: !uppers
    end
  in
  List.iter
    (fun (c : Constr.t) ->
      match c.kind with
      | Constr.Ge -> add_ineq c.aff
      | Constr.Eq ->
        if B.is_zero (Affine.coeff c.aff k) then rest := c :: !rest
        else begin
          add_ineq c.aff;
          add_ineq (Affine.neg c.aff)
        end)
    (System.constraints s);
  (!lowers, !uppers, !rest)

let bounds_of s k =
  let lowers, uppers, _ = split s k in
  (lowers, uppers)

(* Among normalized parallel inequalities [coeffs.x + const >= 0] (identical
   coefficient vectors) only the one with the smallest constant matters. *)
let compress s =
  System.make (System.names s)
    (Constr.dedupe
       (List.filter
          (fun c -> not (Constr.is_trivially_true c))
          (List.map Constr.normalize (System.constraints s))))

let eliminate s k =
  let lowers, uppers, rest = split s k in
  let combined =
    List.concat_map
      (fun (l : bound) ->
        List.map
          (fun (u : bound) ->
            (* l.coef*k >= l.form and u.coef*k <= u.form
               =>  l.coef * u.form - u.coef * l.form >= 0 *)
            Constr.ge (Affine.combine l.coef u.form u.coef l.form))
          uppers)
      lowers
  in
  compress (System.make (System.names s) (combined @ List.rev rest))

let eliminate_list s ks = List.fold_left eliminate s ks
