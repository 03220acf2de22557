type failure = {
  f_category : string;
  f_seed : int;
  f_detail : string;
  f_program : string option;
  f_shrunk_stmts : int option;
}

type t = {
  schema_version : int;
  seed : int;
  count : int;
  behavior_cases : int;
  ladder_cases : int;
  taskgraph_cases : int;
  fault_cases : int;
  rtl_blocks : int;
  wall_s : float;
  failures : failure list;
  degraded : (int * Degraded.t) list;
}

let schema_version = 2
let min_schema_version = 1

(* ------------------------------------------------------------------ *)

let failure_to_json (f : failure) =
  Json.Obj
    ([
       ("category", Json.Str f.f_category);
       ("seed", Json.Int f.f_seed);
       ("detail", Json.Str f.f_detail);
     ]
    @ (match f.f_program with
      | Some p -> [ ("program", Json.Str p) ]
      | None -> [])
    @
    match f.f_shrunk_stmts with
    | Some n -> [ ("shrunk_stmts", Json.Int n) ]
    | None -> [])

let to_json (r : t) =
  Json.Obj
    [
      ("schema_version", Json.Int r.schema_version);
      ("seed", Json.Int r.seed);
      ("count", Json.Int r.count);
      ("behavior_cases", Json.Int r.behavior_cases);
      ("ladder_cases", Json.Int r.ladder_cases);
      ("taskgraph_cases", Json.Int r.taskgraph_cases);
      ("fault_cases", Json.Int r.fault_cases);
      ("rtl_blocks", Json.Int r.rtl_blocks);
      ("wall_s", Json.Float r.wall_s);
      ("failures", Json.List (List.map failure_to_json r.failures));
      ( "degraded",
        Json.List
          (List.map
             (fun (case_seed, d) ->
               match Degraded.to_json d with
               | Json.Obj fields ->
                   Json.Obj (("case_seed", Json.Int case_seed) :: fields)
               | j -> j)
             r.degraded) );
    ]

(* ------------------------------------------------------------------ *)
(* validating reader                                                   *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind
let field = Json.field
let all_of = Json.all_of
let opt_field = Json.opt_field

let failure_of_json j =
  let* f_category = field "category" Json.to_str j in
  let* f_seed = field "seed" Json.to_int j in
  let* f_detail = field "detail" Json.to_str j in
  let* f_program = opt_field "program" Json.to_str j in
  let* f_shrunk_stmts = opt_field "shrunk_stmts" Json.to_int j in
  Ok { f_category; f_seed; f_detail; f_program; f_shrunk_stmts }

let degraded_of_json j =
  let* case_seed = field "case_seed" Json.to_int j in
  let* d =
    match Degraded.of_json j with
    | Ok d -> Ok d
    | Error e -> Error (Printf.sprintf "field \"degraded\": %s" e)
  in
  Ok (case_seed, d)

let of_json j =
  let* version = field "schema_version" Json.to_int j in
  if version < min_schema_version || version > schema_version then
    Error (Printf.sprintf "unsupported schema_version %d" version)
  else
    let* seed = field "seed" Json.to_int j in
    let* count = field "count" Json.to_int j in
    let* behavior_cases = field "behavior_cases" Json.to_int j in
    let* ladder_cases = field "ladder_cases" Json.to_int j in
    let* taskgraph_cases = field "taskgraph_cases" Json.to_int j in
    let* fault_cases = opt_field "fault_cases" Json.to_int j in
    let fault_cases = Option.value fault_cases ~default:0 in
    let* rtl_blocks = field "rtl_blocks" Json.to_int j in
    let* wall_s = field "wall_s" Json.to_float j in
    let* fs = field "failures" Json.to_list j in
    let* failures = all_of failure_of_json fs in
    let* degraded =
      (* absent in v1 files *)
      match Json.member "degraded" j with
      | None -> Ok []
      | Some v -> (
          match Json.to_list v with
          | None -> Error "field \"degraded\" has the wrong type"
          | Some items -> all_of degraded_of_json items)
    in
    Ok
      {
        schema_version = version;
        seed;
        count;
        behavior_cases;
        ladder_cases;
        taskgraph_cases;
        fault_cases;
        rtl_blocks;
        wall_s;
        failures;
        degraded;
      }

(* ------------------------------------------------------------------ *)

let write ~path r = Json.write_file ~path (to_json r)
let read ~path = Json.read_file ~path of_json
