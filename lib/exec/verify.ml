let run_program ?layouts prog ~params ~init =
  let store = Store.create ?layouts prog ~params ~init in
  let flops = Interp.run store prog ~params in
  (store, flops)

let max_diff ?layouts p1 p2 ~params ~init =
  let s1, _ = run_program ?layouts p1 ~params ~init in
  let s2, _ = run_program ?layouts p2 ~params ~init in
  Store.max_abs_diff s1 s2

let equivalent ?layouts p1 p2 ~params ~init =
  max_diff ?layouts p1 p2 ~params ~init <= 1e-9
