(* What a workload is: an endless, seed-determined sequence of rounds,
   each a list of ops.  An op is one timed public call plus the untimed
   check of what it returned. *)

type verdict = {
  digest : string;  (** canonical rendering of the output *)
  error : string option;  (** the first broken invariant *)
  counts : (string * int) list;  (** deterministic work counters *)
}

type op = {
  label : string;  (** the public call, e.g. ["Partition.kl"] *)
  layer : string;  (** its library directory, e.g. ["core.partition"] *)
  kind : string;  (** grouping key for the per-layer metrics *)
  call : unit -> unit -> verdict;
      (** runs the timed call and returns the check of its result *)
  replay : (Trace.t -> (string * int) list) option;
      (** traced runs only: the op's parts again, each under its own
          span, for the per-layer breakdown; returns counters only the
          replay can see *)
}

type t = {
  round : int -> op list;
      (** round [r] of the sequence; a pure function of the seed and [r],
          except that checks may compare against earlier ops of the same
          instance *)
  prefix_rounds : int;
      (** rounds every run completes: they fix the digest and counters *)
  smoke_ops : int;  (** ops of the quick self-test *)
  layers : Trace.span list -> counts:(string * int) list -> (string * float) list;
      (** per-layer metrics of a traced prefix *)
}

let op ~label ~layer ~kind ?replay call = { label; layer; kind; call; replay }
let check ?(counts = []) digest error = { digest; error; counts }

(* Independent per-item generator streams: SplitMix64 decorrelates
   neighbouring seeds, so a plain affine mix is enough. *)
let rng ~seed i = Codesign_ir.Rng.create ((seed * 1_000_003) + i)

let ( <|> ) a b = match a with Some _ -> a | None -> b ()

(* The runner's own spans (round set-up, checks, replay wrappers) carry
   this category; every other top-level span is an op. *)
let harness_cat = "perfbench"
let is_op s = s.Trace.parent = -1 && s.Trace.cat <> harness_cat

(* Seconds spent in the ops that satisfy [pred]. *)
let busy ?(pred = fun _ -> true) spans =
  Trace.total spans ~pred:(fun s -> is_op s && pred s)

(* Seconds spent in replayed calls named [name]. *)
let replayed name spans = Trace.total spans ~pred:(fun s -> s.Trace.name = name)

let ratio a b = if b = 0. then 0. else a /. b
