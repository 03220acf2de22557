(** The tree-walking interpreter of {!Codesign_ir.Behavior}: the
    reference [Behavior.run] is held to.

    It walks the statement tree on every step and keeps scalars in a
    string-keyed table.  Its signature and every observable are those
    of {!Codesign_ir.Behavior.run}: the same results, the same order of
    [tick] and [io] calls with the same values, and the same
    [Invalid_argument] messages at the same tick (fuel exhausted,
    unbound array, unknown array binding, array of length <= 0, no
    extension evaluator). *)

val run :
  ?io:Codesign_ir.Behavior.io ->
  ?ext:(int -> int -> int -> int -> int) ->
  ?tick:(unit -> unit) ->
  ?fuel:int ->
  Codesign_ir.Behavior.proc ->
  (string * int) list ->
  (string * int) list
