(** The machine-readable benchmark artifact ([BENCH_results.json]).

    One record per harness run: the host facts needed to read it (core
    count, OCaml version), per-experiment wall time and simulation
    counters (from {!Codesign_sim.Kernel.domain_totals} deltas), plus
    Bechamel ns/run estimates with their sample count and fit quality
    when the microbenchmark phase ran.  The schema is versioned so
    downstream perf-trajectory tooling can evolve with it; {!of_json}
    validates everything it reads, making the written file
    round-trippable by construction.  Schema 2 added the host facts and
    the per-microbenchmark [samples] and [r_square]; a schema-1 file
    still reads, with those fields [None]. *)

type experiment = {
  name : string;  (** "EXP-1" .. "EXP-10", "EXP-A" *)
  wall_s : float;  (** host wall-clock seconds for the table *)
  events : int;  (** kernel events dispatched by this experiment *)
  activations : int;  (** process activations *)
  scheduled : int;  (** events pushed *)
  kernels : int;  (** simulation kernels created *)
  table_checksum : string;  (** {!Checksum.of_string} of the table text *)
}

type micro = {
  m_name : string;  (** Bechamel test name, e.g. "codesign/iss/fir-kernel" *)
  ns_per_run : float;  (** OLS estimate, monotonic clock *)
  samples : int option;  (** measurements the fit used ([None]: schema 1) *)
  r_square : float option;
      (** the fit's r² ([None]: schema 1, or no finite value) *)
}

type t = {
  schema_version : int;  (** {!schema_version} when written by this build *)
  mode : string;  (** "quick" or "full" problem sizes *)
  domains : int;  (** worker-domain pool size used for the tables *)
  recommended_domains : int option;
      (** [Domain.recommended_domain_count ()] of the host ([None]: schema
          1) — on one core a parallel bench measures pool overhead *)
  ocaml_version : string option;  (** [Sys.ocaml_version] ([None]: schema 1) *)
  tables_wall_s : float;  (** wall seconds for the whole tables phase *)
  experiments : experiment list;
  microbenchmarks : micro list;  (** empty when the phase was skipped *)
}

val schema_version : int

val to_json : t -> Json.t

val of_json : Json.t -> (t, string) result
(** Validates field presence and types; unknown fields are ignored
    (forward compatibility).  Reads schema versions 1 and 2. *)

val write : path:string -> t -> unit
(** Pretty-printed, trailing newline, atomic enough for a bench
    artifact (plain create-and-rename-free write). *)

val read : path:string -> (t, string) result
