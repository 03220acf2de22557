(** Stable content checksums for regression tracking.

    FNV-1a (64-bit): not cryptographic, but deterministic across runs,
    OCaml versions and platforms — unlike [Hashtbl.hash] — which is what
    a perf-trajectory artifact needs so table drift is detectable by
    diffing two [BENCH_results.json] files. *)

val fnv1a64 : string -> int64
(** [fold_string offset_basis s]. *)

val offset_basis : int64
(** The FNV-1a 64 offset basis: the hash of the empty string. *)

val fold_string : int64 -> string -> int64
(** [fold_string h s] carries the hash [h] on over the bytes of [s]:
    [fold_string (fnv1a64 a) b = fnv1a64 (a ^ b)]. *)

val fold_int : int64 -> int -> int64
(** [fold_int h n = fold_string h (string_of_int n)] — the decimal
    digits of [n], after a ['-'] when [n < 0] — for every int,
    [min_int] included, without building the string.  Hashing a record
    of ints this way allocates nothing per field but the boxed result. *)

val of_string : string -> string
(** [hex (fnv1a64 s)] — the form stored in benchmark reports. *)
