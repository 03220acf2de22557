(* The benchmark's definition, read from BENCHMARK.json as compiled in:
   the workloads, and each metric's unit, direction and regression
   bound. *)

module Json = Codesign_obs.Json

type metric = {
  name : string;
  unit : string;
  higher_is_better : bool;
  bound : float option;  (** end-to-end metrics only *)
}

type t = {
  run_seconds : int;
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let parse text =
  let ( let* ) = Result.bind in
  let field k conv j =
    Option.to_result ~none:("BENCHMARK.json: bad or missing " ^ k)
      (Option.bind (Json.member k j) conv)
  in
  let list k conv j =
    let* l = field k Json.to_list j in
    List.fold_right
      (fun x acc ->
        let* acc = acc in
        let* v = conv x in
        Ok (v :: acc))
      l (Ok [])
  in
  let metric j =
    let* name = field "name" Json.to_str j in
    let* unit = field "unit" Json.to_str j in
    let* better = field "better" Json.to_str j in
    Ok
      {
        name;
        unit;
        higher_is_better = better = "higher";
        bound = Option.bind (Json.member "bound" j) Json.to_float;
      }
  in
  let* j = Json.parse text in
  let* run_seconds = field "run_seconds" Json.to_int j in
  let* workloads = list "workloads" (field "name" Json.to_str) j in
  let* end_to_end = list "end_to_end" metric j in
  let* per_layer = list "per_layer" metric j in
  Ok { run_seconds; workloads; end_to_end; per_layer }

let embedded =
  match parse Embedded.benchmark_json with
  | Ok t -> t
  | Error e -> failwith e
