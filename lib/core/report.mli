(** Plain-text table rendering for experiment output.

    The benchmark harness prints one table per reproduced figure; this
    keeps the formatting uniform and the bench code free of printf
    noise. *)

type align = L | R

val table :
  ?title:string ->
  headers:string list ->
  ?align:align list ->
  string list list ->
  string
(** Renders an aligned table with a header rule.  [align] defaults to
    left for the first column and right for the rest.  Rows shorter than
    the header are padded with empty cells. *)

val fi : int -> string
(** Integer with thousands separators (e.g. ["12_345"]). *)

val ff : float -> string
(** Fixed-point float with 2 decimals. *)

val fp : float -> string
(** Percentage with one decimal, e.g. ["12.5%"]. *)
