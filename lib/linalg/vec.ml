module B = Bigint

type t = B.t array

let make n = Array.make n B.zero
let of_ints l = Array.of_list (List.map B.of_int l)
let dim = Array.length

let unit n i =
  let v = make n in
  v.(i) <- B.one;
  v

let is_zero v = Array.for_all B.is_zero v
let equal a b = dim a = dim b && Array.for_all2 B.equal a b

let map2 f a b =
  if dim a <> dim b then invalid_arg "Vec: dimension mismatch";
  Array.init (dim a) (fun i -> f a.(i) b.(i))

let add = map2 B.add
let sub = map2 B.sub
let scale k v = Array.map (B.mul k) v

let dot a b =
  if dim a <> dim b then invalid_arg "Vec.dot: dimension mismatch";
  let acc = ref B.zero in
  for i = 0 to dim a - 1 do
    acc := B.add !acc (B.mul a.(i) b.(i))
  done;
  !acc

let content v = Array.fold_left (fun g x -> B.gcd g x) B.zero v
let divexact v k = Array.map (fun x -> B.divexact x k) v
