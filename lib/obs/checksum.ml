let offset_basis = 0xcbf29ce484222325L
let prime = 0x100000001b3L

(* A local [int64 ref] that never escapes stays unboxed in a register;
   the same ref captured by a [String.iter] closure would box a fresh
   Int64 per byte. *)
let fold_string h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i)));
    h := Int64.mul !h prime
  done;
  !h

let fnv1a64 s = fold_string offset_basis s

(* The bytes of [string_of_int n], most significant digit first.  The
   digits are taken from [m = -|n|], which exists for every int
   ([min_int] included), so [(m / p) mod 10] lies in [-9, 0]. *)
let fold_int h n =
  let h = ref h in
  if n < 0 then h := Int64.mul (Int64.logxor !h 0x2dL (* '-' *)) prime;
  let m = if n < 0 then n else -n in
  (* the largest power of ten not above |n| (1 for n = 0); [10 * p]
     is formed only while it is at most |n|, so it never overflows *)
  let p = ref 1 in
  while m / !p <= -10 do
    p := !p * 10
  done;
  while !p > 0 do
    let digit = -((m / !p) mod 10) in
    h := Int64.logxor !h (Int64.of_int (Char.code '0' + digit));
    h := Int64.mul !h prime;
    p := !p / 10
  done;
  !h

let hex h = Printf.sprintf "%016Lx" h
let of_string s = hex (fnv1a64 s)
