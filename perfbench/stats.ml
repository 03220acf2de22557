(* Order statistics shared by the suite and the comparison tool. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks; [q] in [0, 1]. *)
let percentile xs q =
  match sorted xs with
  | [||] -> 0.
  | a ->
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = truncate pos in
      let j = min (i + 1) (Array.length a - 1) in
      a.(i) +. ((pos -. float_of_int i) *. (a.(j) -. a.(i)))

let median xs = percentile xs 0.5

(* Quartiles exactly as Python's [statistics.quantiles(xs, n=4)]
   (the default "exclusive" method), which is how run-to-run spread is
   judged.  Needs at least two values. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 2 then invalid_arg "Stats.quartiles: need at least two values";
  let m = n + 1 in
  let q i =
    let j = max 1 (min (n - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.
  in
  (q 1, q 2, q 3)

let sum xs = List.fold_left ( +. ) 0. xs
