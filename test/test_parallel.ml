(* Domain-parallel == serial.  The shared Domain_pool merges results by
   task index and folds worker kernel counters back into the calling
   domain, so every parallel path — the fault-campaign sweep, the fuzz
   corpus, the EXP-3M mixed-level grid — must be observationally
   identical to its serial twin: byte-identical report JSON and table
   checksums, jobs-independent counter totals, and worker exceptions
   that surface as a named error instead of a hang. *)

module Pool = Codesign_par.Domain_pool
module K = Codesign_sim.Kernel
module Rng = Codesign_ir.Rng
module Campaign = Codesign_fault.Campaign
module Fuzz = Codesign_fuzz.Fuzz
module FR = Codesign_obs.Fault_report
module FzR = Codesign_obs.Fuzz_report
module Json = Codesign_obs.Json
module Checksum = Codesign_obs.Checksum
module Exp_fig3m = Codesign_experiments.Exp_fig3m
module Registry = Codesign_experiments.Registry

let check = Alcotest.check

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
  at 0

(* ------------------------------------------------------------------ *)
(* the pool itself                                                     *)
(* ------------------------------------------------------------------ *)

(* Order preserved by index under a workload whose per-task cost varies
   wildly (shuffled sizes scramble completion order across workers) —
   no sleeps, just unequal compute. *)
let test_pool_order_preserved () =
  let n = 200 in
  let rng = Rng.create 7 in
  let sizes = Array.init n (fun _ -> Rng.int rng 20_000) in
  let f i =
    let acc = ref (i * 31) in
    for j = 1 to sizes.(i) do
      acc := (!acc + (j * i)) land 0xFFFF
    done;
    (i, !acc)
  in
  let tasks = Array.init n (fun i -> i) in
  let serial = Array.map f tasks in
  List.iter
    (fun jobs ->
      let par = Pool.map ~jobs f tasks in
      check Alcotest.bool
        (Printf.sprintf "jobs:%d result equals Array.map, in index order" jobs)
        true (par = serial);
      Array.iteri (fun i (j, _) -> check Alcotest.int "slot i holds task i" i j)
        par)
    [ 1; 2; 4; 7 ]

(* [f] over [n] tasks, counting how often each task ran. *)
let counted n f =
  let tries = Array.init n (fun _ -> Atomic.make 0) in
  ( (fun i ->
      Atomic.incr tries.(i);
      f i),
    fun () ->
      Array.iteri
        (fun i t ->
          check Alcotest.int (Printf.sprintf "task %d ran once" i) 1
            (Atomic.get t))
        tries )

(* An exception inside a worker must not hang the pool: every domain is
   joined and ALL failures come back as one Worker_error, in index
   order, each naming its task.  The pool never retries: each task,
   failed or not, runs exactly once. *)
let test_pool_worker_error_surfaces () =
  let f, ran_once =
    counted 100 (fun i -> if i = 37 || i = 61 then failwith "boom" else i)
  in
  match
    Pool.map ~jobs:4
      ~name:(fun i -> Printf.sprintf "task-%d" i)
      f
      (Array.init 100 (fun i -> i))
  with
  | _ -> Alcotest.fail "expected Worker_error"
  | exception Pool.Worker_error failures ->
      ran_once ();
      check Alcotest.int "both failures collected" 2 (List.length failures);
      check Alcotest.(list int) "failing indices in order" [ 37; 61 ]
        (List.map (fun (f : Pool.failure) -> f.Pool.index) failures);
      check
        Alcotest.(list string)
        "task labels" [ "task-37"; "task-61" ]
        (List.map (fun (f : Pool.failure) -> f.Pool.task) failures);
      List.iter
        (fun (f : Pool.failure) ->
          check Alcotest.bool "message carries the original exception" true
            (contains ~needle:"boom" f.Pool.message))
        failures

(* Same surfacing contract on the serial path, so error behaviour does
   not depend on the job count. *)
let test_pool_worker_error_serial () =
  let f, ran_once = counted 4 (fun i -> if i = 2 then raise Exit else i) in
  match Pool.map ~jobs:1 f [| 0; 1; 2; 3 |] with
  | _ -> Alcotest.fail "expected Worker_error"
  | exception Pool.Worker_error [ { Pool.index; task; message } ] ->
      ran_once ();
      check Alcotest.int "failing index" 2 index;
      check Alcotest.string "unnamed task" "" task;
      check Alcotest.bool "message names the exception" true
        (contains ~needle:"Exit" message)
  | exception Pool.Worker_error _ ->
      Alcotest.fail "expected exactly one failure"

(* ------------------------------------------------------------------ *)
(* per-domain kernel-counter merge                                     *)
(* ------------------------------------------------------------------ *)

let net_workload i () =
  let k = K.create () in
  for p = 0 to 7 do
    K.spawn k (fun () ->
        for _ = 1 to 40 do
          K.wait (1 + ((i + p) mod 5))
        done)
  done;
  ignore (K.run k)

let totals_delta f =
  let before = K.domain_totals () in
  f ();
  K.diff_totals ~after:(K.domain_totals ()) ~before

let check_totals msg (a : K.domain_totals) (b : K.domain_totals) =
  check Alcotest.int (msg ^ ": events") a.K.d_events b.K.d_events;
  check Alcotest.int (msg ^ ": activations") a.K.d_activations
    b.K.d_activations;
  check Alcotest.int (msg ^ ": scheduled") a.K.d_scheduled b.K.d_scheduled;
  check Alcotest.int (msg ^ ": kernels") a.K.d_kernels b.K.d_kernels

(* merge_domain_totals adds exactly the delta it is given *)
let test_merge_totals_adds () =
  let d =
    { K.d_events = 3; d_activations = 5; d_scheduled = 7; d_kernels = 2 }
  in
  let delta = totals_delta (fun () -> K.merge_domain_totals d) in
  check_totals "merged delta" d delta

(* The same networks run on two domains must leave the calling domain's
   cumulative totals exactly where the serial run leaves them: the
   worker deltas are measured remotely and merged back. *)
let test_dls_totals_parallel_equal_serial () =
  let tasks = Array.init 6 (fun i -> i) in
  let serial =
    totals_delta (fun () -> Array.iter (fun i -> net_workload i ()) tasks)
  in
  check Alcotest.bool "workload actually runs kernels" true
    (serial.K.d_events > 0 && serial.K.d_kernels = 6);
  let par =
    totals_delta (fun () ->
        ignore (Pool.map ~jobs:2 (fun i -> net_workload i ()) tasks))
  in
  check_totals "two domains vs serial" serial par;
  let par4 =
    totals_delta (fun () ->
        ignore (Pool.map ~jobs:4 (fun i -> net_workload i ()) tasks))
  in
  check_totals "four domains vs serial" serial par4

(* ------------------------------------------------------------------ *)
(* byte-identity: parallel == serial                                   *)
(* ------------------------------------------------------------------ *)

let fault_json r = Json.to_string (FR.to_json r)

let test_campaign_parallel_identity () =
  List.iter
    (fun seed ->
      let serial = Campaign.run ~seed ~ops:48 ~jobs:1 () in
      let par = Campaign.run ~seed ~ops:48 ~jobs:4 () in
      check Alcotest.string
        (Printf.sprintf "seed %d: Fault_report JSON byte-identical" seed)
        (fault_json serial) (fault_json par))
    [ 42; 7 ]

let test_campaign_rerun_parallel_identity () =
  let serial = Campaign.sweep ~seed:11 ~ops:32 Campaign.Rerun in
  let par = Campaign.sweep ~seed:11 ~ops:32 ~jobs:3 Campaign.Rerun in
  check Alcotest.bool "rerun-engine sweep cells identical" true (serial = par)

(* wall_s is the one honest wall-clock field; zero it on both sides and
   the rest of the report must match byte-for-byte. *)
let fuzz_json r = Json.to_string (FzR.to_json { r with FzR.wall_s = 0.0 })

let test_fuzz_parallel_identity () =
  List.iter
    (fun (seed, count, fault) ->
      let serial = Fuzz.run ~seed ~count ~fault ~jobs:1 () in
      let par = Fuzz.run ~seed ~count ~fault ~jobs:4 () in
      check Alcotest.string
        (Printf.sprintf "seed %d: Fuzz_report JSON byte-identical" seed)
        (fuzz_json serial) (fuzz_json par))
    [ (42, 64, false); (5, 48, true) ]

let test_exp3m_parallel_identity () =
  let serial = Exp_fig3m.run ~quick:true ~jobs:1 () in
  let par = Exp_fig3m.run ~quick:true ~jobs:4 () in
  check Alcotest.string "EXP-3M table byte-identical" serial par;
  check Alcotest.string "EXP-3M table checksum identical"
    (Checksum.of_string serial) (Checksum.of_string par);
  (* and through the registry entry the CLI/bench use *)
  match Registry.find "exp3m" with
  | None -> Alcotest.fail "exp3m missing from registry"
  | Some e ->
      check Alcotest.string "registry-threaded jobs produce the same table"
        serial
        (e.Registry.run ~quick:true ~jobs:2 ())

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "order preserved by index" `Quick
            test_pool_order_preserved;
          Alcotest.test_case "worker exception surfaces, no hang" `Quick
            test_pool_worker_error_surfaces;
          Alcotest.test_case "serial path wraps errors identically" `Quick
            test_pool_worker_error_serial;
        ] );
      ( "kernel-counters",
        [
          Alcotest.test_case "merge adds the delta" `Quick
            test_merge_totals_adds;
          Alcotest.test_case "two-domain totals equal serial" `Quick
            test_dls_totals_parallel_equal_serial;
        ] );
      ( "identity",
        [
          Alcotest.test_case "fault campaign jobs:4 == jobs:1" `Quick
            test_campaign_parallel_identity;
          Alcotest.test_case "rerun-engine sweep jobs:3 == jobs:1" `Quick
            test_campaign_rerun_parallel_identity;
          Alcotest.test_case "fuzz corpus jobs:4 == jobs:1" `Quick
            test_fuzz_parallel_identity;
          Alcotest.test_case "EXP-3M grid jobs:4 == jobs:1" `Quick
            test_exp3m_parallel_identity;
        ] );
    ]
