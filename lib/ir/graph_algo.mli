(** Generic directed-graph algorithms over dense integer node ids.

    All graphs in the framework — task graphs, control/data-flow graphs,
    netlists — reduce to this representation for structural queries.
    Nodes are [0 .. n-1]; edges are ordered pairs.  The structure is
    immutable after creation. *)

type t
(** A directed graph with a fixed node count and edge set. *)

val create : n:int -> edges:(int * int) list -> t
(** [create ~n ~edges] builds a graph with [n] nodes.  Duplicate edges are
    kept (parallel edges are allowed); self-loops are allowed and make the
    graph cyclic.  @raise Invalid_argument if an endpoint is outside
    [0, n). *)

val succ : t -> int -> int list
(** Successors of a node, in insertion order. *)

val topo_sort : t -> int list option
(** Kahn topological order, or [None] if the graph has a cycle.  Among
    ready nodes, smaller ids come first, so the order is deterministic. *)

val is_dag : t -> bool

val longest_path : t -> weight:(int -> int) -> int array
(** [longest_path g ~weight] returns, for each node, the maximum
    node-weight sum over paths ending at that node (inclusive of the node
    itself).  Requires a DAG.  @raise Invalid_argument on cyclic input. *)

val critical_path : t -> weight:(int -> int) -> int list * int
(** [critical_path g ~weight] returns one maximum-weight source-to-sink
    path and its total weight.  Requires a DAG. *)

