module B = Codesign_ir.Behavior
module Rng = Codesign_ir.Rng
module Fuzz_report = Codesign_obs.Fuzz_report
module Clock = Codesign_obs.Clock

let pp_program p = Format.asprintf "%a" B.pp p

(* Case [i] runs from generator [seed + i]: the whole campaign is one
   flat space of independently replayable cases.  Each case owns its
   generator and builds its own kernels/worlds, so cases are also the
   unit of domain-parallelism — [run ~jobs:n] shards them over a
   {!Codesign_par.Domain_pool} and merges the per-case outcomes by
   index, reproducing the serial report exactly. *)
let dispatch case_seed = case_seed land 15

type category = Behavior | Ladder | Taskgraph | Fault_cat

(* Everything one case contributes to the report, in case order. *)
type case_result = {
  cr_category : category;
  cr_rtl_blocks : int;
  cr_failures : Fuzz_report.failure list;
}

let failure ~category ~case_seed ?program ?shrunk_stmts detail =
  {
    Fuzz_report.f_category = category;
    f_seed = case_seed;
    f_detail = detail;
    f_program = program;
    f_shrunk_stmts = shrunk_stmts;
  }

let behavior_case ?transform_asm ~case_seed rng =
  let p = Gen.behavior rng in
  let check q = Diff.check_behavior ?transform_asm q in
  let outcome = check p in
  let failures =
    match outcome.Diff.error with
    | None -> []
    | Some _ ->
        let keep q = (check q).Diff.error <> None in
        let small = Diff.normalize (Shrink.minimize ~keep p) in
        let detail =
          match (check small).Diff.error with
          | Some d -> d
          | None -> "unstable failure: shrunk program agrees"
        in
        [
          failure ~category:"behavior" ~case_seed
            ~program:(pp_program small)
            ~shrunk_stmts:(B.static_stmts small) detail;
        ]
  in
  {
    cr_category = Behavior;
    cr_rtl_blocks = outcome.Diff.rtl_blocks;
    cr_failures = failures;
  }

let ladder_case ~case_seed rng =
  (* pure rungs first, then a mixed grid point from the same case's
     stream — one failure per case, ladder category *)
  let failures =
    match
      (match Diff.check_ladder rng with
      | Some d -> Some d
      | None -> Diff.check_mixed rng)
    with
    | None -> []
    | Some d -> [ failure ~category:"ladder" ~case_seed d ]
  in
  { cr_category = Ladder; cr_rtl_blocks = 0; cr_failures = failures }

let taskgraph_case ~case_seed rng =
  let failures =
    match Diff.check_taskgraph rng with
    | None -> []
    | Some d -> [ failure ~category:"taskgraph" ~case_seed d ]
  in
  { cr_category = Taskgraph; cr_rtl_blocks = 0; cr_failures = failures }

(* Fault mode (off by default): slot 3 checks the fault-campaign
   machinery's own invariants, slot 4 pushes a generated behaviour's
   output trace through the fault-injected ARQ transport — a failing
   transport case shrinks like any behaviour case. *)
let fault_campaign_case ~case_seed rng =
  let failures =
    match Codesign_fault.Oracle.check_campaign rng with
    | None -> []
    | Some d -> [ failure ~category:"fault" ~case_seed d ]
  in
  { cr_category = Fault_cat; cr_rtl_blocks = 0; cr_failures = failures }

let fault_transport_case ~case_seed rng =
  let p = Gen.behavior rng in
  let check q = Codesign_fault.Oracle.check_transport ~seed:case_seed q in
  let failures =
    match check p with
    | None -> []
    | Some _ ->
        let keep q = check q <> None in
        let small = Diff.normalize (Shrink.minimize ~keep p) in
        let detail =
          match check small with
          | Some d -> d
          | None -> "unstable failure: shrunk program agrees"
        in
        [
          failure ~category:"fault" ~case_seed ~program:(pp_program small)
            ~shrunk_stmts:(B.static_stmts small) detail;
        ]
  in
  { cr_category = Fault_cat; cr_rtl_blocks = 0; cr_failures = failures }

let run_case ?transform_asm ~fault case_seed =
  let rng = Rng.create case_seed in
  match dispatch case_seed with
  | 0 -> ladder_case ~case_seed rng
  | 1 | 2 -> taskgraph_case ~case_seed rng
  | 3 when fault -> fault_campaign_case ~case_seed rng
  | 4 when fault -> fault_transport_case ~case_seed rng
  | _ -> behavior_case ?transform_asm ~case_seed rng

let run ?(seed = 42) ?(count = 200) ?(fault = false) ?(jobs = 1)
    ?(max_retries = 0) ?deadline_ms ?transform_asm () =
  let t0 = Clock.now_ns () in
  let budget = Codesign_resil.Budget.create ?deadline_ms () in
  let cases = Array.init count (fun i -> seed + i) in
  (* Degradation instead of abort: each case runs under the supervisor,
     so one whose harness raises on every attempt (or is queued past
     the wall deadline) becomes a [degraded] report entry keyed by its
     case seed, and the campaign completes. *)
  let outcomes =
    Array.to_list
      (Codesign_par.Domain_pool.map ~jobs
         (fun case_seed ->
           ( case_seed,
             Codesign_resil.Supervisor.run ~max_retries ~budget (fun () ->
                 Ok (run_case ?transform_asm ~fault case_seed)) ))
         cases)
  in
  let results = List.filter_map (fun (_, o) -> Result.to_option o) outcomes in
  let degraded =
    List.filter_map
      (function case_seed, Error d -> Some (case_seed, d) | _, Ok _ -> None)
      outcomes
  in
  let count_cat c =
    List.fold_left
      (fun acc r -> if r.cr_category = c then acc + 1 else acc)
      0 results
  in
  {
    Fuzz_report.schema_version = Fuzz_report.schema_version;
    seed;
    count;
    behavior_cases = count_cat Behavior;
    ladder_cases = count_cat Ladder;
    taskgraph_cases = count_cat Taskgraph;
    fault_cases = count_cat Fault_cat;
    rtl_blocks = List.fold_left (fun acc r -> acc + r.cr_rtl_blocks) 0 results;
    wall_s = Clock.elapsed_s ~since:t0;
    failures = List.concat_map (fun r -> r.cr_failures) results;
    degraded;
  }
