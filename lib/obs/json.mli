(** A dependency-free JSON tree: emitter and parser.

    Exists so the measurement layer can write machine-readable artifacts
    ([BENCH_results.json], [--json] CLI output) without pulling a JSON
    package into the build.  Covers the whole of RFC 8259 except that
    emitted numbers are OCaml [int]/[float] (no bignums), and non-finite
    floats are rejected at emission — benchmark data must be
    serialisable losslessly or not at all. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?pretty:bool -> t -> string
(** Serialise.  [pretty] (default [false]) adds newlines and two-space
    indentation.  @raise Invalid_argument on NaN or infinite floats. *)

val parse : string -> (t, string) result
(** Parse a complete JSON document (trailing whitespace allowed; any
    other trailing input is an error).  Integral number literals without
    ['.'], ['e'] or ['E'] become {!Int}; everything else {!Float}. *)

(** {2 Accessors} — each returns [None] on shape mismatch. *)

val member : string -> t -> t option
(** Field of an {!Obj} ([None] for missing field or non-object). *)

val to_int : t -> int option
val to_float : t -> float option
(** {!Int} values are accepted and converted by [to_float]. *)

val to_bool : t -> bool option

val to_str : t -> string option
val to_list : t -> t list option

(** {2 Validating readers} — the shared vocabulary of the report
    schemas' [of_json] functions. *)

val field : string -> (t -> 'a option) -> t -> ('a, string) result
(** [field name conv j]: the converted member [name] of [j].  Errors
    are ["missing field \"name\""] and
    ["field \"name\" has the wrong type"]. *)

val opt_field :
  string -> (t -> 'a option) -> t -> ('a option, string) result
(** Like {!field}, but a missing member is [Ok None]. *)

val all_of :
  ('a -> ('b, string) result) -> 'a list -> ('b list, string) result
(** Convert every item, in order; on failure, the error of the last
    failing item. *)

(** {2 Files} *)

val write_file : path:string -> t -> unit
(** Write the pretty-printed document and a trailing newline.
    @raise Sys_error when [path] cannot be opened for writing. *)

val read_file :
  path:string -> (t -> ('a, string) result) -> ('a, string) result
(** Read, parse and convert a whole file; an unreadable file, a parse
    error and a conversion error all come back as [Error] (for an
    unreadable file, the [Sys_error] text). *)
