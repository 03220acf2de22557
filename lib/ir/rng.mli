(** A small deterministic PRNG (SplitMix64), self-contained so that
    simulated annealing, workload generation and every experiment are
    bit-reproducible across runs and platforms.  No global state: each
    consumer owns its generator. *)

type t

val create : int -> t
(** Seeded generator; equal seeds give equal streams. *)

val reseed : t -> int -> unit
(** Reset the generator in place to exactly the state [create seed]
    would produce — the forked fault campaigns reuse one generator
    across checkpoint restores this way instead of allocating a fresh
    one per fork. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound).
    @raise Invalid_argument if [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] draws uniformly from [lo, hi] inclusive. *)

val float : t -> float
(** Uniform in [0, 1). *)

val bool : t -> bool

val pick : t -> 'a list -> 'a
(** Uniform element.  @raise Invalid_argument on empty list. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates. *)

