type cell = {
  mechanism : string;
  rate : float;
  ops : int;
  faulted_ops : int;
  injected : int;
  detected : int;
  recovered_ops : int;
  lost_ops : int;
  retries : int;
  watchdog_bites : int;
  degraded_to : string option;
  sim_cycles : int;
  cycle_overhead : float;
  recovery_rate : float;
  mean_detect_latency : float;
  checksum_ok : bool;
  degraded : Degraded.t option;
}

type drill = {
  d_site : string;
  d_mechanism : string;
  d_injected : int;
  d_detected : int;
  d_recovered : int;
}

type t = {
  schema_version : int;
  seed : int;
  ops_per_cell : int;
  warmup_per_cell : int;
  rates : float list;
  cells : cell list;
  drills : drill list;
}

let schema_version = 3
let min_schema_version = 2

(* ------------------------------------------------------------------ *)

let cell_to_json (c : cell) =
  Json.Obj
    ([
       ("mechanism", Json.Str c.mechanism);
       ("rate", Json.Float c.rate);
       ("ops", Json.Int c.ops);
       ("faulted_ops", Json.Int c.faulted_ops);
       ("injected", Json.Int c.injected);
       ("detected", Json.Int c.detected);
       ("recovered_ops", Json.Int c.recovered_ops);
       ("lost_ops", Json.Int c.lost_ops);
       ("retries", Json.Int c.retries);
       ("watchdog_bites", Json.Int c.watchdog_bites);
     ]
    @ (match c.degraded_to with
      | Some l -> [ ("degraded_to", Json.Str l) ]
      | None -> [])
    @ [
        ("sim_cycles", Json.Int c.sim_cycles);
        ("cycle_overhead", Json.Float c.cycle_overhead);
        ("recovery_rate", Json.Float c.recovery_rate);
        ("mean_detect_latency", Json.Float c.mean_detect_latency);
        ("checksum_ok", Json.Bool c.checksum_ok);
      ]
    @
    match c.degraded with
    | Some d -> [ ("degraded", Degraded.to_json d) ]
    | None -> [])

let drill_to_json (d : drill) =
  Json.Obj
    [
      ("site", Json.Str d.d_site);
      ("mechanism", Json.Str d.d_mechanism);
      ("injected", Json.Int d.d_injected);
      ("detected", Json.Int d.d_detected);
      ("recovered", Json.Int d.d_recovered);
    ]

let to_json (r : t) =
  Json.Obj
    [
      ("schema_version", Json.Int r.schema_version);
      ("seed", Json.Int r.seed);
      ("ops_per_cell", Json.Int r.ops_per_cell);
      ("warmup_per_cell", Json.Int r.warmup_per_cell);
      ("rates", Json.List (List.map (fun x -> Json.Float x) r.rates));
      ("cells", Json.List (List.map cell_to_json r.cells));
      ("drills", Json.List (List.map drill_to_json r.drills));
    ]

(* ------------------------------------------------------------------ *)
(* validating reader                                                   *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind
let field = Json.field
let all_of = Json.all_of
let opt_field = Json.opt_field

let cell_of_json j =
  let* mechanism = field "mechanism" Json.to_str j in
  let* rate = field "rate" Json.to_float j in
  let* ops = field "ops" Json.to_int j in
  let* faulted_ops = field "faulted_ops" Json.to_int j in
  let* injected = field "injected" Json.to_int j in
  let* detected = field "detected" Json.to_int j in
  let* recovered_ops = field "recovered_ops" Json.to_int j in
  let* lost_ops = field "lost_ops" Json.to_int j in
  let* retries = field "retries" Json.to_int j in
  let* watchdog_bites = field "watchdog_bites" Json.to_int j in
  let* degraded_to = opt_field "degraded_to" Json.to_str j in
  let* sim_cycles = field "sim_cycles" Json.to_int j in
  let* cycle_overhead = field "cycle_overhead" Json.to_float j in
  let* recovery_rate = field "recovery_rate" Json.to_float j in
  let* mean_detect_latency = field "mean_detect_latency" Json.to_float j in
  let* checksum_ok = field "checksum_ok" Json.to_bool j in
  let* degraded =
    match Json.member "degraded" j with
    | None -> Ok None
    | Some v -> (
        match Degraded.of_json v with
        | Ok d -> Ok (Some d)
        | Error e -> Error (Printf.sprintf "field \"degraded\": %s" e))
  in
  Ok
    {
      mechanism;
      rate;
      ops;
      faulted_ops;
      injected;
      detected;
      recovered_ops;
      lost_ops;
      retries;
      watchdog_bites;
      degraded_to;
      sim_cycles;
      cycle_overhead;
      recovery_rate;
      mean_detect_latency;
      checksum_ok;
      degraded;
    }

let drill_of_json j =
  let* d_site = field "site" Json.to_str j in
  let* d_mechanism = field "mechanism" Json.to_str j in
  let* d_injected = field "injected" Json.to_int j in
  let* d_detected = field "detected" Json.to_int j in
  let* d_recovered = field "recovered" Json.to_int j in
  Ok { d_site; d_mechanism; d_injected; d_detected; d_recovered }

let of_json j =
  let* version = field "schema_version" Json.to_int j in
  if version < min_schema_version || version > schema_version then
    Error (Printf.sprintf "unsupported schema_version %d" version)
  else
    let* seed = field "seed" Json.to_int j in
    let* ops_per_cell = field "ops_per_cell" Json.to_int j in
    let* warmup_per_cell = field "warmup_per_cell" Json.to_int j in
    let* rs = field "rates" Json.to_list j in
    let* rates =
      all_of
        (fun x ->
          match Json.to_float x with
          | Some f -> Ok f
          | None -> Error "field \"rates\" has the wrong type")
        rs
    in
    let* cs = field "cells" Json.to_list j in
    let* cells = all_of cell_of_json cs in
    let* ds = field "drills" Json.to_list j in
    let* drills = all_of drill_of_json ds in
    Ok
      {
        schema_version = version;
        seed;
        ops_per_cell;
        warmup_per_cell;
        rates;
        cells;
        drills;
      }

(* ------------------------------------------------------------------ *)

let write ~path r = Json.write_file ~path (to_json r)
let read ~path = Json.read_file ~path of_json
