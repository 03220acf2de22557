type experiment = {
  name : string;
  wall_s : float;
  events : int;
  activations : int;
  scheduled : int;
  kernels : int;
  table_checksum : string;
}

type micro = { m_name : string; ns_per_run : float }

type t = {
  schema_version : int;
  mode : string;
  domains : int;
  tables_wall_s : float;
  experiments : experiment list;
  microbenchmarks : micro list;
}

let schema_version = 1

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

let micro_to_json (m : micro) =
  Json.Obj
    [ ("name", Json.Str m.m_name); ("ns_per_run", Json.Float m.ns_per_run) ]

let to_json (r : t) =
  Json.Obj
    [
      ("schema_version", Json.Int r.schema_version);
      ("mode", Json.Str r.mode);
      ("domains", Json.Int r.domains);
      ("tables_wall_s", Json.Float r.tables_wall_s);
      ("experiments", Json.List (List.map experiment_to_json r.experiments));
      ( "microbenchmarks",
        Json.List (List.map micro_to_json r.microbenchmarks) );
    ]

(* ------------------------------------------------------------------ *)
(* validating reader                                                   *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind
let field = Json.field
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
  Ok { m_name; ns_per_run }

let of_json j =
  let* version = field "schema_version" Json.to_int j in
  if version <> schema_version then
    Error (Printf.sprintf "unsupported schema_version %d" version)
  else
    let* mode = field "mode" Json.to_str j in
    let* domains = field "domains" Json.to_int j in
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
        tables_wall_s;
        experiments;
        microbenchmarks;
      }

(* ------------------------------------------------------------------ *)

let write ~path r = Json.write_file ~path (to_json r)
let read ~path = Json.read_file ~path of_json
