(** The system address map shared by every bus model.

    The map is a set of non-overlapping regions.  RAM regions are backed
    by arrays owned by the map; device regions delegate to handler
    callbacks (typically closing over a {!Device} instance).  Both bus
    abstraction levels ({!Bus.Tlm} and {!Bus.Pin}) decode through the
    same map, so moving between abstraction levels never changes
    functional behaviour — only timing fidelity. *)

type handlers = {
  dev_read : int -> int;  (** offset within the region *)
  dev_write : int -> int -> unit;
  (* Pin-accurate models can add wait states; the TLM ignores this. *)
  wait_states : int -> int;  (** extra bus cycles for the access at offset *)
}

type region_kind =
  | Ram of int array
  | Rom of int array
  | Device of handlers

type region = { name : string; base : int; size : int; kind : region_kind }

type t

val create : region list -> t
(** @raise Invalid_argument on overlapping or empty regions. *)

val decode : t -> int -> (region * int) option
(** Region and offset for an address, or [None] for unmapped space. *)

val read : t -> int -> int
(** Functional read (no timing).  ROM/RAM return the cell; devices call
    [dev_read].  @raise Invalid_argument on unmapped addresses, naming
    every mapped window (name + address range). *)

val write : t -> int -> int -> unit
(** Functional write.  Writes to ROM raise; unmapped addresses raise,
    naming every mapped window (name + address range). *)

val wait_states : t -> int -> int
(** Device wait states at an address (0 for memory and unmapped). *)

(** {2 Snapshot / restore}

    A snapshot copies the backing array of every RAM and ROM region
    (ROMs are included because their backing arrays are shared with the
    caller and could be mutated externally).  Device regions hold their
    state behind handler closures and are {e not} captured — a device
    whose state matters across forks must expose its own
    snapshot/restore. *)

type snap

val snapshot : t -> snap

val restore : t -> snap -> unit
(** Rewind every RAM/ROM region's contents.  Regions are matched by
    position in address order, not by name, so two regions that share
    a name each get their own contents back.
    @raise Invalid_argument, naming the region and writing nothing, if
    the map and the snapshot differ in their number of RAM/ROM regions
    or in a region's name or size (a snapshot from a different map
    shape). *)

val ram : name:string -> base:int -> size:int -> region
val rom : name:string -> base:int -> int array -> region
val device : name:string -> base:int -> size:int -> handlers -> region

val simple_handlers :
  ?wait_states:(int -> int) -> (int -> int) -> (int -> int -> unit) -> handlers
(** Build handlers from read/write functions; wait states default 0. *)
