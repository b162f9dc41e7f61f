(* Seeded op lists.  A workload's mix is a fixed deck of op descriptors;
   a run deals the deck pass after pass, each pass a seeded permutation.
   Equal seeds give equal lists; other seeds give other orders of the same
   multiset, so every seed does the same work per pass and a run that
   ends on a pass boundary has exactly the deck's mix. *)

module Rng = Fuzzing.Rng

(* The stream for pass [index]: [index + 1] splits into the seed's
   stream, so passes are independent of each other and of how many ops
   the previous passes drew. *)
let rng ~seed ~index =
  let base = Rng.create seed in
  let r = ref (Rng.split base) in
  for _ = 1 to index do
    r := Rng.split base
  done;
  !r

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Pass [index] of the deck: its permutation, then one [vary] draw per op
   (in dealt order) for the choices a descriptor leaves open, such as a
   block size. *)
let pass ~seed ~index ~vary deck =
  let r = rng ~seed ~index in
  Array.map (vary r) (shuffle r deck)
