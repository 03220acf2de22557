(* lib/resil: retry policies, execution budgets, restart supervision,
   and the graceful-degradation path through the fault campaign and the
   fuzz driver.  The central claims under test: backoff schedules are
   the historic ones; a budget-exhausted run leaves its world intact and
   restorable; a supervisor gives up at its restart-intensity cap, and
   starts nothing past its deadline, retries included; a campaign with
   a sabotaged (chaos) task completes with that task degraded while
   every other cell — and the whole report at any job count — stays
   byte-identical; and both campaign engines agree at every budget,
   under tight fuel and under a wall deadline alike. *)

module Policy = Codesign_resil.Policy
module Budget = Codesign_resil.Budget
module Supervisor = Codesign_resil.Supervisor
module K = Codesign_sim.Kernel
module Campaign = Codesign_fault.Campaign

let engine_name = function
  | Campaign.Fork -> "fork"
  | Campaign.Rerun -> "rerun"
module FR = Codesign_obs.Fault_report
module FzR = Codesign_obs.Fuzz_report
module Json = Codesign_obs.Json
module Degraded = Codesign_obs.Degraded
module Fuzz = Codesign_fuzz.Fuzz

let check = Alcotest.check
let fail = Alcotest.fail

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
  at 0

(* ------------------------------------------------------------------ *)
(* Policy                                                              *)
(* ------------------------------------------------------------------ *)

(* The delays [retry] waits before each retry, for a body that always
   fails. *)
let waits_of p =
  let waits = ref [] in
  ignore
    (Policy.retry p ~wait:(fun d -> waits := d :: !waits) (fun ~attempt:_ ->
         Error ()));
  List.rev !waits

let test_policy_schedules () =
  check
    Alcotest.(list int)
    "linear ramp is the historic tlm schedule" [ 8; 16; 24 ]
    (waits_of (Policy.create ~max_retries:3 ~backoff:(Policy.Linear 8)));
  check
    Alcotest.(list int)
    "no_backoff never waits" []
    (waits_of (Policy.create ~max_retries:2 ~backoff:Policy.No_backoff))

let test_policy_retry_waits_and_counts () =
  let waits = ref [] and retries = ref 0 in
  let p = Policy.create ~max_retries:3 ~backoff:(Policy.Linear 10) in
  let body ~attempt = if attempt < 2 then Error "flaky" else Ok attempt in
  match
    Policy.retry p
      ~wait:(fun d -> waits := d :: !waits)
      ~on_retry:(fun ~attempt:_ ~delay:_ -> incr retries)
      body
  with
  | Error _ -> fail "expected eventual success"
  | Ok attempt ->
      check Alcotest.int "succeeded on the third attempt" 2 attempt;
      check Alcotest.int "on_retry per retry" 2 !retries;
      check
        Alcotest.(list int)
        "waited the linear delays, in order" [ 10; 20 ] (List.rev !waits)

let test_policy_retry_exhausts () =
  let p = Policy.create ~max_retries:2 ~backoff:Policy.No_backoff in
  match Policy.retry p (fun ~attempt -> Error attempt) with
  | Ok _ -> fail "expected exhaustion"
  | Error { Policy.attempts; last_error } ->
      check Alcotest.int "max_retries + 1 attempts" 3 attempts;
      check Alcotest.int "last error is the final attempt's" 2 last_error

(* ------------------------------------------------------------------ *)
(* Budget                                                              *)
(* ------------------------------------------------------------------ *)

let no_deadline = Budget.create ()

(* A fuel-exhausted kernel run charges its window, leaves the kernel
   intact, and a snapshot restore + rerun reproduces an unbudgeted twin
   exactly. *)
let test_budget_kernel_restorable () =
  let build () =
    let k = K.create () in
    let hits = ref 0 in
    let snap = K.snapshot k in
    let spawn_work () =
      K.spawn k (fun () ->
          for _ = 1 to 100 do
            K.wait 10;
            incr hits
          done)
    in
    (k, hits, snap, spawn_work)
  in
  (* twin without a budget *)
  let k', hits', _, spawn' = build () in
  spawn' ();
  ignore (K.run ~bound:K.Quiesce k');
  (* budgeted run: exhausts at the fuel bound with events pending *)
  let k, hits, snap, spawn_work = build () in
  spawn_work ();
  (match Budget.run_kernel (Budget.with_fuel no_deadline ~fuel:300) k with
  | Budget.Exhausted Budget.Fuel -> ()
  | Budget.Exhausted Budget.Deadline -> fail "expected fuel, not deadline"
  | Budget.Done _ -> fail "expected exhaustion");
  check Alcotest.int "clock charged the full fuel window" 300 (K.now k);
  check Alcotest.bool "work remains queued" true (K.has_pending_events k);
  check Alcotest.int "partial progress is visible" 30 !hits;
  (* rewind and rerun to completion: matches the unbudgeted twin *)
  K.restore k snap;
  hits := 0;
  spawn_work ();
  ignore (K.run ~bound:K.Quiesce k);
  check Alcotest.int "restored rerun reaches the twin's clock" (K.now k')
    (K.now k);
  check Alcotest.int "restored rerun reaches the twin's state" !hits' !hits

let test_budget_kernel_done_inside_fuel () =
  let k = K.create () in
  K.spawn k (fun () -> K.wait 50);
  match Budget.run_kernel (Budget.with_fuel no_deadline ~fuel:1000) k with
  | Budget.Done _ ->
      check Alcotest.bool "queue drained" false (K.has_pending_events k)
  | Budget.Exhausted _ -> fail "fits comfortably in the budget"

(* Fuel is the window of one run, counted from the kernel's clock:
   [with_fuel] gives the next run a window of its own. *)
let test_budget_with_fuel_shares_deadline () =
  let k = K.create () in
  K.spawn k (fun () ->
      while true do
        K.wait 1
      done);
  let b = Budget.with_fuel (Budget.create ~deadline_ms:60_000 ()) ~fuel:10 in
  (match Budget.run_kernel b k with
  | Budget.Exhausted Budget.Fuel -> ()
  | _ -> fail "a spinning process must exhaust its fuel");
  check Alcotest.int "first window" 10 (K.now k);
  (match Budget.run_kernel (Budget.with_fuel b ~fuel:5) k with
  | Budget.Exhausted Budget.Fuel -> ()
  | _ -> fail "the fresh window must run out too");
  check Alcotest.int "a fresh 5-unit window from the clock" 15 (K.now k)

(* ------------------------------------------------------------------ *)
(* Supervisor                                                          *)
(* ------------------------------------------------------------------ *)

let test_supervisor_gives_up_at_cap () =
  let attempt = ref 0 in
  match
    Supervisor.run ~max_retries:2 ~budget:no_deadline (fun () ->
        incr attempt;
        failwith (Printf.sprintf "trap %d" !attempt))
  with
  | Ok () -> fail "expected to give up"
  | Error d ->
      check Alcotest.int "restart-intensity cap honoured" 3 d.Degraded.attempts;
      check Alcotest.bool "the last attempt's error" true
        (contains ~needle:"trap 3" d.Degraded.error);
      check Alcotest.int "elapsed is the caller's to fill in" 0
        d.Degraded.elapsed;
      check Alcotest.int "the body ran once per attempt" 3 !attempt

let test_supervisor_recovers () =
  let attempts = ref 0 in
  match
    Supervisor.run ~max_retries:3 ~budget:no_deadline (fun () ->
        incr attempts;
        if !attempts < 3 then Error "not yet" else Ok (!attempts * 7))
  with
  | Error _ -> fail "expected recovery"
  | Ok value ->
      check Alcotest.int "value from the successful attempt" 21 value;
      check Alcotest.int "attempts counted" 3 !attempts

let spin_past_deadline budget =
  while not (Budget.past_deadline budget) do
    Domain.cpu_relax ()
  done

(* Work not started by the wall deadline is cut off without running,
   and a retry is work not started: an attempt that fails once the
   deadline has passed is the last one. *)
let test_supervisor_deadline_passed () =
  let budget = Budget.create ~deadline_ms:1 () in
  spin_past_deadline budget;
  let ran = ref false in
  (match
     Supervisor.run ~max_retries:2 ~budget (fun () ->
         ran := true;
         Ok ())
   with
  | Ok () -> fail "a passed deadline must cut the work off"
  | Error d ->
      check Alcotest.string "error" "deadline exceeded" d.Degraded.error;
      check Alcotest.int "no attempt made" 0 d.Degraded.attempts;
      check Alcotest.bool "body never ran" false !ran);
  (* the deadline passes during the first attempt, which then fails *)
  let budget = Budget.create ~deadline_ms:100 () in
  let runs = ref 0 in
  match
    Supervisor.run ~max_retries:2 ~budget (fun () ->
        incr runs;
        spin_past_deadline budget;
        Error "cut off")
  with
  | Ok () -> fail "the attempt failed"
  | Error d ->
      check Alcotest.string "the attempt's own error" "cut off"
        d.Degraded.error;
      check Alcotest.int "no retry past the deadline" 1 d.Degraded.attempts;
      check Alcotest.int "ran once" 1 !runs

(* ------------------------------------------------------------------ *)
(* degraded campaigns                                                  *)
(* ------------------------------------------------------------------ *)

let quick_chaos_report ?(engine = Campaign.Fork) ~jobs chaos =
  Campaign.run ~seed:42 ~ops:Campaign.quick_ops ~engine ~jobs ?chaos ()

let engines = [ Campaign.Fork; Campaign.Rerun ]

let is_chaos (c : FR.cell) = contains ~needle:"chaos-" c.FR.mechanism

(* The chaos task traps on every attempt, so its cells come back
   degraded — and the report is still byte-identical at every job
   count, degraded cells included, and on both engines. *)
let test_chaos_campaign_degrades_and_is_jobs_invariant () =
  let bytes r = Json.to_string (FR.to_json r) in
  let reports =
    List.map
      (fun engine ->
        let name = engine_name engine in
        let r1 =
          quick_chaos_report ~engine ~jobs:1 (Some Campaign.Chaos_trap)
        in
        let chaos_cells = List.filter is_chaos r1.FR.cells in
        check Alcotest.bool (name ^ ": chaos cells present") true
          (chaos_cells <> []);
        List.iter
          (fun (c : FR.cell) ->
            match c.FR.degraded with
            | None -> fail (name ^ ": chaos cell must be degraded")
            | Some d ->
                check Alcotest.bool (name ^ ": error names the injected trap")
                  true
                  (contains ~needle:"chaos: injected trap"
                     d.Codesign_obs.Degraded.error);
                check Alcotest.int
                  (name ^ ": default policy: 2 restarts = 3 attempts") 3
                  d.Codesign_obs.Degraded.attempts)
          chaos_cells;
        List.iter
          (fun jobs ->
            check Alcotest.string
              (Printf.sprintf "%s: report bytes identical at jobs:%d" name jobs)
              (bytes r1)
              (bytes
                 (quick_chaos_report ~engine ~jobs (Some Campaign.Chaos_trap))))
          [ 2; 4 ];
        bytes r1)
      engines
  in
  check Alcotest.string "rerun report bytes = fork report bytes"
    (List.nth reports 0) (List.nth reports 1)

(* Sabotage is contained: every non-chaos cell is byte-identical to the
   same campaign run without --chaos. *)
let test_chaos_leaves_other_cells_untouched () =
  let with_chaos = quick_chaos_report ~jobs:1 (Some Campaign.Chaos_trap) in
  let without = quick_chaos_report ~jobs:1 None in
  let cell_bytes (c : FR.cell) =
    Json.to_string (FR.to_json { with_chaos with FR.cells = [ c ] })
  in
  check
    Alcotest.(list string)
    "non-chaos cells unchanged by the chaos task"
    (List.map cell_bytes without.FR.cells)
    (List.map cell_bytes
       (List.filter (fun c -> not (is_chaos c)) with_chaos.FR.cells))

(* Fork and rerun sweeps of one grid are equal cell for cell, degraded
   [elapsed] included; a failure names the first cell that differs. *)
let check_engines_agree what fork rerun =
  match List.find_opt (fun (f, r) -> f <> r) (List.combine fork rerun) with
  | None -> ()
  | Some ((c : FR.cell), _) ->
      fail
        (Printf.sprintf "%s: fork and rerun differ at %s at rate %g" what
           c.FR.mechanism c.FR.rate)

(* A hanging cell exhausts its (deterministic, simulated) fuel window
   and degrades with a fuel error instead of wedging the sweep, on both
   engines.  Both windows start at the warm-up boundary, so the two
   sweeps are equal cell for cell, the hang cells' [elapsed] included. *)
let test_chaos_hang_exhausts_fuel () =
  let cell_fuel = 5_000_000 in
  let sweeps =
    List.map
      (fun engine ->
        let name = engine_name engine in
        let cells =
          Campaign.sweep ~seed:42 ~ops:Campaign.quick_ops ~cell_fuel
            ~chaos:Campaign.Chaos_hang engine
        in
        let hung = List.filter is_chaos cells in
        check Alcotest.bool (name ^ ": hang cells present") true (hung <> []);
        List.iter
          (fun (c : FR.cell) ->
            match c.FR.degraded with
            | Some d ->
                check Alcotest.bool (name ^ ": fuel exhaustion reported") true
                  (contains ~needle:"fuel" d.Codesign_obs.Degraded.error);
                check Alcotest.int (name ^ ": 3 attempts") 3
                  d.Codesign_obs.Degraded.attempts
            | None -> fail (name ^ ": hang cell must be degraded"))
          hung;
        List.iter
          (fun (c : FR.cell) ->
            check Alcotest.bool
              (name ^ ": healthy cells complete within the fuel window") true
              (c.FR.degraded = None))
          (List.filter (fun c -> not (is_chaos c)) cells);
        cells)
      engines
  in
  check_engines_agree "hang" (List.nth sweeps 0) (List.nth sweeps 1)

(* Fork = rerun at every budget: at fuel windows tight enough to cut
   off some cells and not others, with and without retries, with and
   without a hanging task, the two engines give equal cell lists, the
   degraded cells' [elapsed] included. *)
let test_engines_agree_at_tight_fuel () =
  List.iter
    (fun cell_fuel ->
      List.iter
        (fun max_retries ->
          List.iter
            (fun chaos ->
              let sweep engine =
                Campaign.sweep ~seed:42 ~ops:Campaign.quick_ops ~cell_fuel
                  ~max_retries ?chaos engine
              in
              check_engines_agree
                (Printf.sprintf "cell_fuel %d, max_retries %d%s" cell_fuel
                   max_retries
                   (if chaos = None then "" else ", chaos hang"))
                (sweep Campaign.Fork) (sweep Campaign.Rerun))
            [ None; Some Campaign.Chaos_hang ])
        [ 0; 2 ])
    [ 800; 1000; 1400; 2400 ]

(* A wall deadline degrades both engines alike.  A 2M-transfer warm-up
   cannot finish in 20 ms, so the first cell's attempt is cut off inside
   its warm-up, on either engine, and every later cell is work not
   started.  The two sweeps agree on every cell except in [elapsed],
   which on a cut-off attempt is wall-clock dependent. *)
let test_deadline_degrades_engines_alike () =
  let without_elapsed (c : FR.cell) =
    {
      c with
      FR.degraded =
        Option.map (fun d -> { d with Degraded.elapsed = 0 }) c.FR.degraded;
    }
  in
  let sweeps =
    List.map
      (fun engine ->
        let name = engine_name engine in
        let cells =
          Campaign.sweep ~ops:8 ~warmup:2_000_000 ~deadline_ms:20 engine
        in
        check Alcotest.int (name ^ ": full grid") 16 (List.length cells);
        List.iter
          (fun (c : FR.cell) ->
            match c.FR.degraded with
            | None -> fail (name ^ ": a cell finished a 2M-transfer warm-up")
            | Some d ->
                let shape = (d.Degraded.error, d.Degraded.attempts) in
                check Alcotest.bool
                  (Printf.sprintf "%s: %S, %d attempts" name (fst shape)
                     (snd shape))
                  true
                  (List.mem shape
                     [
                       ("budget exhausted: deadline", 1);
                       ("deadline exceeded", 0);
                     ]))
          cells;
        List.map without_elapsed cells)
      engines
  in
  check Alcotest.bool "fork cells = rerun cells" true
    (List.nth sweeps 0 = List.nth sweeps 1)

(* ------------------------------------------------------------------ *)
(* degraded fuzzing                                                    *)
(* ------------------------------------------------------------------ *)

(* A raising harness degrades its cases instead of aborting the corpus,
   and the degraded report is identical at any job count (wall time
   aside). *)
let test_fuzz_degrades_on_raising_harness () =
  let boom _ = failwith "injected harness fault" in
  let run jobs =
    { (Fuzz.run ~seed:42 ~count:24 ~jobs ~transform_asm:boom ()) with
      FzR.wall_s = 0.0 }
  in
  let r = run 1 in
  check Alcotest.bool "behaviour cases degraded" true (r.FzR.degraded <> []);
  List.iter
    (fun ((_, d) : int * Codesign_obs.Degraded.t) ->
      check Alcotest.bool "error carries the harness fault" true
        (contains ~needle:"injected harness fault" d.Codesign_obs.Degraded.error);
      check Alcotest.int "no retries by default: one attempt" 1
        d.Codesign_obs.Degraded.attempts)
    r.FzR.degraded;
  check Alcotest.int "non-behaviour cases still complete"
    (r.FzR.ladder_cases + r.FzR.taskgraph_cases)
    (24 - List.length r.FzR.degraded - r.FzR.behavior_cases);
  if run 3 <> r then fail "degraded fuzz report must be jobs-invariant"

(* [max_retries] reaches every case: a harness that raises on every
   attempt degrades after [max_retries + 1] of them, the same at any
   job count. *)
let test_fuzz_retries_raising_harness () =
  let calls = Atomic.make 0 in
  let boom _ =
    Atomic.incr calls;
    failwith "injected harness fault"
  in
  let run jobs =
    { (Fuzz.run ~seed:42 ~count:24 ~jobs ~max_retries:2 ~transform_asm:boom ())
      with
      FzR.wall_s = 0.0 }
  in
  let r = run 1 in
  check Alcotest.bool "behaviour cases degraded" true (r.FzR.degraded <> []);
  List.iter
    (fun ((_, d) : int * Codesign_obs.Degraded.t) ->
      check Alcotest.int "max_retries 2: three attempts" 3
        d.Codesign_obs.Degraded.attempts)
    r.FzR.degraded;
  check Alcotest.int "the harness ran once per attempt"
    (3 * List.length r.FzR.degraded)
    (Atomic.get calls);
  if run 3 <> r then fail "retried fuzz report must be jobs-invariant"

let () =
  Alcotest.run "codesign_resil"
    [
      ( "policy",
        [
          Alcotest.test_case "backoff schedules" `Quick test_policy_schedules;
          Alcotest.test_case "retry waits and counts" `Quick
            test_policy_retry_waits_and_counts;
          Alcotest.test_case "retry exhausts at the cap" `Quick
            test_policy_retry_exhausts;
        ] );
      ( "budget",
        [
          Alcotest.test_case "exhausted kernel run is restorable" `Quick
            test_budget_kernel_restorable;
          Alcotest.test_case "drained queue is Done" `Quick
            test_budget_kernel_done_inside_fuel;
          Alcotest.test_case "with_fuel refreshes the allowance" `Quick
            test_budget_with_fuel_shares_deadline;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "gives up at the restart-intensity cap" `Quick
            test_supervisor_gives_up_at_cap;
          Alcotest.test_case "recovers after failed attempts" `Quick
            test_supervisor_recovers;
          Alcotest.test_case "passed deadline runs nothing" `Quick
            test_supervisor_deadline_passed;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "chaos campaign degrades, jobs-invariant" `Quick
            test_chaos_campaign_degrades_and_is_jobs_invariant;
          Alcotest.test_case "chaos leaves other cells untouched" `Quick
            test_chaos_leaves_other_cells_untouched;
          Alcotest.test_case "hanging cell exhausts fuel" `Quick
            test_chaos_hang_exhausts_fuel;
          Alcotest.test_case "fork = rerun at tight fuel" `Quick
            test_engines_agree_at_tight_fuel;
          Alcotest.test_case "deadline degrades both engines alike" `Quick
            test_deadline_degrades_engines_alike;
          Alcotest.test_case "fuzz degrades on a raising harness" `Quick
            test_fuzz_degrades_on_raising_harness;
          Alcotest.test_case "fuzz retries a raising harness" `Quick
            test_fuzz_retries_raising_harness;
        ] );
    ]
