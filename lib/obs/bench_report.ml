type experiment = {
  name : string;
  wall_s : float;
  events : int;
  activations : int;
  scheduled : int;
  kernels : int;
  table_checksum : string;
}

type micro = {
  m_name : string;
  ns_per_run : float;
  samples : int option;
  r_square : float option;
}

type t = {
  schema_version : int;
  mode : string;
  domains : int;
  recommended_domains : int option;
  ocaml_version : string option;
  tables_wall_s : float;
  experiments : experiment list;
  microbenchmarks : micro list;
}

let schema_version = 2

(* ------------------------------------------------------------------ *)

let experiment_to_json (e : experiment) =
  Json.Obj
    [
      ("name", Json.Str e.name);
      ("wall_s", Json.Float e.wall_s);
      ("events", Json.Int e.events);
      ("activations", Json.Int e.activations);
      ("scheduled", Json.Int e.scheduled);
      ("kernels", Json.Int e.kernels);
      ("table_checksum", Json.Str e.table_checksum);
    ]

(* an absent optional field is left out, as in a schema-1 file *)
let opt name conv = function None -> [] | Some v -> [ (name, conv v) ]

let micro_to_json (m : micro) =
  Json.Obj
    ([ ("name", Json.Str m.m_name); ("ns_per_run", Json.Float m.ns_per_run) ]
    @ opt "samples" (fun n -> Json.Int n) m.samples
    @ opt "r_square" (fun f -> Json.Float f) m.r_square)

let to_json (r : t) =
  Json.Obj
    ([
       ("schema_version", Json.Int r.schema_version);
       ("mode", Json.Str r.mode);
       ("domains", Json.Int r.domains);
     ]
    @ opt "recommended_domains" (fun n -> Json.Int n) r.recommended_domains
    @ opt "ocaml_version" (fun v -> Json.Str v) r.ocaml_version
    @ [
      ("tables_wall_s", Json.Float r.tables_wall_s);
      ("experiments", Json.List (List.map experiment_to_json r.experiments));
      ( "microbenchmarks",
        Json.List (List.map micro_to_json r.microbenchmarks) );
    ])

(* ------------------------------------------------------------------ *)
(* validating reader                                                   *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind
let field = Json.field
let opt_field = Json.opt_field
let all_of = Json.all_of

let experiment_of_json j =
  let* name = field "name" Json.to_str j in
  let* wall_s = field "wall_s" Json.to_float j in
  let* events = field "events" Json.to_int j in
  let* activations = field "activations" Json.to_int j in
  let* scheduled = field "scheduled" Json.to_int j in
  let* kernels = field "kernels" Json.to_int j in
  let* table_checksum = field "table_checksum" Json.to_str j in
  Ok { name; wall_s; events; activations; scheduled; kernels; table_checksum }

let micro_of_json j =
  let* m_name = field "name" Json.to_str j in
  let* ns_per_run = field "ns_per_run" Json.to_float j in
  let* samples = opt_field "samples" Json.to_int j in
  let* r_square = opt_field "r_square" Json.to_float j in
  Ok { m_name; ns_per_run; samples; r_square }

(* Schema 1 lacks the host facts and the per-microbenchmark fit
   quality; it reads with those fields [None]. *)
let of_json j =
  let* version = field "schema_version" Json.to_int j in
  if version < 1 || version > schema_version then
    Error (Printf.sprintf "unsupported schema_version %d" version)
  else
    let* mode = field "mode" Json.to_str j in
    let* domains = field "domains" Json.to_int j in
    let* recommended_domains = opt_field "recommended_domains" Json.to_int j in
    let* ocaml_version = opt_field "ocaml_version" Json.to_str j in
    let* tables_wall_s = field "tables_wall_s" Json.to_float j in
    let* exps = field "experiments" Json.to_list j in
    let* experiments = all_of experiment_of_json exps in
    let* micros = field "microbenchmarks" Json.to_list j in
    let* microbenchmarks = all_of micro_of_json micros in
    Ok
      {
        schema_version = version;
        mode;
        domains;
        recommended_domains;
        ocaml_version;
        tables_wall_s;
        experiments;
        microbenchmarks;
      }

(* ------------------------------------------------------------------ *)

let write ~path r = Json.write_file ~path (to_json r)
let read ~path = Json.read_file ~path of_json
