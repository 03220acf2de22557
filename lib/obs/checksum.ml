let offset_basis = 0xcbf29ce484222325L
let prime = 0x100000001b3L

(* A local [int64 ref] that never escapes stays unboxed in a register;
   the same ref captured by a [String.iter] closure would box a fresh
   Int64 per byte. *)
let fnv1a64 s =
  let h = ref offset_basis in
  for i = 0 to String.length s - 1 do
    h := Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i)));
    h := Int64.mul !h prime
  done;
  !h

let hex h = Printf.sprintf "%016Lx" h
let of_string s = hex (fnv1a64 s)
