module B = Bigint

type t = B.t array array

let of_int_rows rows =
  let m = Array.of_list (List.map (fun r -> Array.of_list (List.map B.of_int r)) rows) in
  (match Array.length m with
   | 0 -> ()
   | _ ->
     let c = Array.length m.(0) in
     Array.iter
       (fun r -> if Array.length r <> c then invalid_arg "Mat: ragged rows")
       m);
  m

let rows (m : t) = Array.length m
let cols (m : t) = if rows m = 0 then 0 else Array.length m.(0)
let transpose m = Array.init (cols m) (fun j -> Array.init (rows m) (fun i -> m.(i).(j)))

let identity n =
  Array.init n (fun i -> Array.init n (fun j -> if i = j then B.one else B.zero))

let mul a b =
  if cols a <> rows b then invalid_arg "Mat.mul: dimension mismatch";
  let bt = transpose b in
  Array.init (rows a) (fun i -> Array.init (cols b) (fun j -> Vec.dot a.(i) bt.(j)))

let equal a b =
  rows a = rows b && cols a = cols b
  && Array.for_all2 (fun r s -> Array.for_all2 B.equal r s) a b

(* Fraction-free elimination.  Rows are rescaled by their content after each
   combination step, which keeps coefficient growth polynomial for the small
   matrices (access matrices, cutting-plane matrices) we handle. *)
let rank m =
  let m = Array.map Array.copy m in
  let nr = rows m and nc = cols m in
  let rank = ref 0 in
  let pivot_row = ref 0 in
  for col = 0 to nc - 1 do
    if !pivot_row < nr then begin
      (* Find a row with nonzero entry in this column. *)
      let piv = ref (-1) in
      for i = !pivot_row to nr - 1 do
        if !piv < 0 && not (B.is_zero m.(i).(col)) then piv := i
      done;
      if !piv >= 0 then begin
        let tmp = m.(!pivot_row) in
        m.(!pivot_row) <- m.(!piv);
        m.(!piv) <- tmp;
        let p = m.(!pivot_row).(col) in
        for i = !pivot_row + 1 to nr - 1 do
          if not (B.is_zero m.(i).(col)) then begin
            let f = m.(i).(col) in
            let combined =
              Array.init nc (fun j ->
                  B.sub (B.mul p m.(i).(j)) (B.mul f m.(!pivot_row).(j)))
            in
            let g = Vec.content combined in
            m.(i) <-
              (if B.is_zero g || B.equal g B.one then combined
               else Vec.divexact combined g)
          end
        done;
        incr pivot_row;
        incr rank
      end
    end
  done;
  !rank

let in_row_span m v =
  let extended = Array.append m [| Array.copy v |] in
  if rows m = 0 then Vec.is_zero v else rank extended = rank m

let rows_span m f = Array.for_all (fun r -> in_row_span m r) f
