(* Compares two sets of suite reports:

     dune exec perfbench/compare.exe -- A.json... -- B.json...

   A is the baseline, B the candidate; each file holds the stdout of one
   or more suite runs.  For every workload x metric it prints each
   side's median and quartiles, the ratio of medians, and — for metrics
   with a bound in BENCHMARK.json — a verdict: better, worse, within
   bound, or unresolved when the interquartile range exceeds the bound
   (unless every B run beats every A run).  When both sides hold the
   same number of runs they are taken as pairs in order, and the share
   of pairs B wins is shown.  Digests and deterministic counters must be
   identical across all runs of one workload, seed and mode.  Exits 1
   on any regression, mismatch or added failed op. *)

module Json = Codesign_obs.Json

type report = {
  file : string;
  workload : string;
  key : string;  (** workload, seed and mode: runs that must agree exactly *)
  digest : string;
  counters : Json.t;
  failed : int;
  host_ref_ms : float;
  values : (string * float) list;
}

let member k j =
  match Json.member k j with
  | Some v -> v
  | None -> failwith ("report without " ^ k)

let report_of file j =
  let str k = Option.get (Json.to_str (member k j)) in
  let workload = str "workload" in
  let value (k, v) =
    Option.map (fun x -> (k, x)) (Option.bind (Json.member "value" v) Json.to_float)
  in
  {
    file;
    workload;
    key =
      Printf.sprintf "%s seed %d (%s)" workload
        (Option.get (Json.to_int (member "seed" j)))
        (str "mode");
    digest = str "digest";
    counters = member "counters" j;
    failed = Option.get (Json.to_int (member "failed" j));
    host_ref_ms =
      Stats.median
        (List.filter_map Json.to_float
           (Option.get (Json.to_list (member "host_ref_ms" (member "host" j)))));
    values =
      (match member "metrics" j with
      | Json.Obj l -> List.filter_map value l
      | _ -> []);
  }

let read_reports file =
  In_channel.with_open_text file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match Json.parse line with
         | Ok j when Json.member "suite" j = Some (Json.Str "perfbench") ->
             Some (report_of file j)
         | _ -> None)

let quartiles = function [ x ] -> (x, x, x) | xs -> Stats.quartiles xs

(* Signed relative change of B against A, positive when B is worse. *)
let worsening (m : Spec.metric) a b =
  if m.Spec.higher_is_better then (a -. b) /. a else (b -. a) /. a

let verdict (m : Spec.metric) ~bound a b =
  let _, ma, _ = quartiles a and _, mb, _ = quartiles b in
  let spread xs =
    let q1, q2, q3 = quartiles xs in
    (q3 -. q1) /. q2
  in
  let better x y = worsening m x y < 0. in
  let every rel = List.for_all (fun y -> List.for_all (fun x -> rel x y) a) b in
  let w = worsening m ma mb in
  if Float.max (spread a) (spread b) > bound then
    if every better then "better"
    else if every (fun x y -> better y x) && w > bound then "worse"
    else "unresolved"
  else if w > bound then "worse"
  else if w < -.bound then "better"
  else "within bound"

let wins (m : Spec.metric) a b =
  if List.length a <> List.length b then ""
  else
    let won = List.filter (fun (x, y) -> worsening m x y < 0.) (List.combine a b) in
    Printf.sprintf "%d/%d" (List.length won) (List.length a)

let () =
  let rec split acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | x :: rest -> split (x :: acc) rest
    | [] -> (List.rev acc, [])
  in
  let files_a, files_b = split [] (List.tl (Array.to_list Sys.argv)) in
  if files_a = [] || files_b = [] then begin
    prerr_endline "usage: compare.exe A.json... -- B.json...";
    exit 2
  end;
  let a = List.concat_map read_reports files_a in
  let b = List.concat_map read_reports files_b in
  let bad = ref false in
  let flag fmt =
    Printf.ksprintf
      (fun s ->
        bad := true;
        print_endline s)
      fmt
  in
  List.iter
    (fun key ->
      match List.filter (fun r -> r.key = key) (a @ b) with
      | r0 :: rest ->
          List.iter
            (fun r ->
              if r.digest <> r0.digest || r.counters <> r0.counters then
                flag "MISMATCH %s: %s and %s differ in digest or counters" key
                  r0.file r.file)
            rest
      | [] -> ())
    (List.sort_uniq compare (List.map (fun r -> r.key) (a @ b)));
  let host side = Stats.median (List.map (fun r -> r.host_ref_ms) side) in
  Printf.printf "host_ref_ms: A %.2f, B %.2f\n" (host a) (host b);
  let of_workload w = List.filter (fun r -> r.workload = w) in
  List.iter
    (fun w ->
      let ra = of_workload w a and rb = of_workload w b in
      if ra <> [] && rb <> [] then begin
        Printf.printf "\n%s: %d A runs, %d B runs\n" w (List.length ra)
          (List.length rb);
        Printf.printf "  %-32s %-28s %-28s %7s %-14s %s\n" "metric"
          "A median [q1, q3]" "B median [q1, q3]" "B/A" "verdict" "B wins";
        let failed side = List.fold_left (fun acc r -> max acc r.failed) 0 side in
        if failed rb > failed ra then
          flag "  REGRESSION: B has failed ops (%d, A %d)" (failed rb)
            (failed ra);
        List.iter
          (fun (m : Spec.metric) ->
            let vals = List.filter_map (fun r -> List.assoc_opt m.Spec.name r.values) in
            let va = vals ra and vb = vals rb in
            if va <> [] && vb <> [] && List.exists (( <> ) 0.) (va @ vb) then begin
              let cell xs =
                let q1, q2, q3 = quartiles xs in
                Printf.sprintf "%.5g [%.5g, %.5g]" q2 q1 q3
              in
              let _, ma, _ = quartiles va and _, mb, _ = quartiles vb in
              let v =
                match m.Spec.bound with
                | Some bound -> verdict m ~bound va vb
                | None -> "-"
              in
              if v = "worse" then bad := true;
              Printf.printf "  %-32s %-28s %-28s %7.3f %-14s %s\n" m.Spec.name
                (cell va) (cell vb) (mb /. ma) v (wins m va vb)
            end)
          (Spec.embedded.Spec.end_to_end @ Spec.embedded.Spec.per_layer)
      end)
    Spec.embedded.Spec.workloads;
  exit (if !bad then 1 else 0)
