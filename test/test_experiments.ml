(* Smoke + shape tests for the experiment drivers: every EXP runs in
   quick mode, produces a non-empty table, and its qualitative claim
   (the paper's "shape") holds. *)

open Codesign_experiments

let check = Alcotest.check

let non_empty name s =
  check Alcotest.bool (name ^ " produces a table") true
    (String.length s > 80 && String.contains s '|')

let test_run name f () = non_empty name (f ~quick:true ())
let test_shape name f () = check Alcotest.bool (name ^ " shape") true (f ())

module FR = Codesign_obs.Fault_report

(* EXP-F's claim holds beyond the seed it was written at: on every seed
   from 1 to 60.  A strict tlm < token at every rate would fail on 17 of
   them, each time on a tie at 100% recovery. *)
let test_fault_claim_seeds () =
  for seed = 1 to 60 do
    check Alcotest.bool
      (Printf.sprintf "expF claim at seed %d" seed)
      true
      (Exp_fault.claim_holds (Exp_fault.report ~seed ()))
  done

(* ... and it can fail: a token rung that recovers exactly what tlm
   does breaks it wherever tlm loses an op. *)
let test_fault_claim_fails_on_token_as_tlm () =
  let r = Exp_fault.report () in
  let tlm rate =
    List.find
      (fun (c : FR.cell) -> c.FR.mechanism = "tlm" && c.FR.rate = rate)
      r.FR.cells
  in
  let cells =
    List.map
      (fun (c : FR.cell) ->
        if c.FR.mechanism = "token" then
          { (tlm c.FR.rate) with FR.mechanism = "token" }
        else c)
      r.FR.cells
  in
  check Alcotest.bool "seed 42 holds" true (Exp_fault.claim_holds r);
  check Alcotest.bool "token = tlm breaks the claim" false
    (Exp_fault.claim_holds { r with FR.cells })

(* EXP-5's exact-optimum check can fail: one feasible heuristic point
   doctored 5% cheaper than sos breaks it. *)
let test_exp5_beaten_optimum_fails () =
  let points = Exp_fig5.sweep ~sizes:[ 5 ] ~seeds:[ 1; 2 ] in
  check Alcotest.bool "the swept points hold" true
    (Exp_fig5.exact_never_beaten points);
  let doctored = ref false in
  let beaten =
    List.map
      (fun (p : Exp_fig5.point) ->
        if (not !doctored) && p.algorithm <> "sos" && p.feasible then begin
          doctored := true;
          { p with gap = -0.05 }
        end
        else p)
      points
  in
  check Alcotest.bool "a feasible heuristic point to doctor" true !doctored;
  check Alcotest.bool "a 5% cheaper heuristic breaks the check" false
    (Exp_fig5.exact_never_beaten beaten)

(* EXPERIMENTS.md quotes its tables verbatim from
   bench_tables_reference.txt in "```table EXP-..." blocks.  Run the
   harness's writer over copies of both files: it must leave the
   document exactly as it is, and it fails on a block naming no
   reference table. *)
let test_doc_quotes_reference () =
  let exe = Filename.concat (Sys.getcwd ()) "../bench/main.exe" in
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let doc = read "../EXPERIMENTS.md" in
  let dir = Filename.temp_dir "experiments_doc" "" in
  let copy name text =
    Out_channel.with_open_bin (Filename.concat dir name) (fun oc ->
        output_string oc text)
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Array.to_list (Sys.readdir dir));
      Sys.rmdir dir)
    (fun () ->
      copy "EXPERIMENTS.md" doc;
      copy "bench_tables_reference.txt" (read "../bench_tables_reference.txt");
      let rc =
        Sys.command
          (Printf.sprintf "cd %s && %s docs > /dev/null" (Filename.quote dir)
             (Filename.quote exe))
      in
      check Alcotest.int "writer exit code" 0 rc;
      check Alcotest.bool "EXPERIMENTS.md matches bench_tables_reference.txt"
        true
        (read (Filename.concat dir "EXPERIMENTS.md") = doc))

let () =
  Alcotest.run "codesign_experiments"
    [
      ( "tables",
        [
          Alcotest.test_case "exp1 runs" `Quick
            (test_run "exp1" (fun ~quick () -> Exp_fig1.run ~quick ()));
          Alcotest.test_case "exp2 runs" `Quick
            (test_run "exp2" (fun ~quick () -> Exp_fig2.run ~quick ()));
          Alcotest.test_case "exp3 runs" `Quick
            (test_run "exp3" (fun ~quick () -> Exp_fig3.run ~quick ()));
          Alcotest.test_case "exp3m runs" `Quick
            (test_run "exp3m" (fun ~quick () -> Exp_fig3m.run ~quick ()));
          Alcotest.test_case "exp4 runs" `Quick
            (test_run "exp4" (fun ~quick () -> Exp_fig4.run ~quick ()));
          Alcotest.test_case "exp5 runs" `Quick
            (test_run "exp5" (fun ~quick () -> Exp_fig5.run ~quick ()));
          Alcotest.test_case "exp6 runs" `Quick
            (test_run "exp6" (fun ~quick () -> Exp_fig6.run ~quick ()));
          Alcotest.test_case "exp7 runs" `Quick
            (test_run "exp7" (fun ~quick () -> Exp_fig7.run ~quick ()));
          Alcotest.test_case "exp8 runs" `Quick
            (test_run "exp8" (fun ~quick () -> Exp_fig8.run ~quick ()));
          Alcotest.test_case "exp9 runs" `Quick
            (test_run "exp9" (fun ~quick () -> Exp_fig9.run ~quick ()));
          Alcotest.test_case "exp10 runs" `Quick
            (test_run "exp10" (fun ~quick () -> Exp_criteria.run ~quick ()));
          Alcotest.test_case "expA runs" `Quick
            (test_run "expA" (fun ~quick () -> Exp_ablation.run ~quick ()));
          Alcotest.test_case "expF runs" `Quick
            (test_run "expF" (fun ~quick () -> Exp_fault.run ~quick ()));
        ] );
      ( "shapes",
        [
          Alcotest.test_case "exp1 classification agrees with paper" `Quick
            (test_shape "exp1" Exp_fig1.all_agree);
          Alcotest.test_case "exp2 fig-2 containment" `Quick
            (test_shape "exp2" Exp_fig2.containment_holds);
          Alcotest.test_case "exp3 ladder monotone" `Quick
            (test_shape "exp3" (fun () -> Exp_fig3.shape_holds ()));
          Alcotest.test_case "exp3m mixed grid invariants" `Quick
            (test_shape "exp3m" (fun () -> Exp_fig3m.shape_holds ()));
          Alcotest.test_case "exp4 polled vs irq" `Quick
            (test_shape "exp4" (fun () -> Exp_fig4.shape_holds ()));
          Alcotest.test_case "exp5 exact vs heuristic" `Quick
            (test_shape "exp5" (fun () -> Exp_fig5.shape_holds ()));
          Alcotest.test_case "exp6 diminishing returns" `Quick
            (test_shape "exp6" (fun () -> Exp_fig6.shape_holds ()));
          Alcotest.test_case "exp7 static vs dynamic" `Quick
            (test_shape "exp7" (fun () -> Exp_fig7.shape_holds ()));
          Alcotest.test_case "exp8 partitioning shapes" `Quick
            (test_shape "exp8" (fun () -> Exp_fig8.shape_holds ()));
          Alcotest.test_case "exp9 thread scaling" `Quick
            (test_shape "exp9" (fun () -> Exp_fig9.shape_holds ()));
          Alcotest.test_case "exp10 §5 prose facts" `Quick
            (test_shape "exp10" (fun () -> Exp_criteria.shape_holds ()));
          Alcotest.test_case "expA ablation shapes" `Quick
            (test_shape "expA" (fun () -> Exp_ablation.shape_holds ()));
          Alcotest.test_case "expF claim holds on the seed-42 report" `Quick
            (test_shape "expF" (fun () -> Exp_fault.shape_holds ()));
          Alcotest.test_case "expF claim holds on seeds 1-60" `Quick
            test_fault_claim_seeds;
          Alcotest.test_case "expF claim fails if token = tlm" `Quick
            test_fault_claim_fails_on_token_as_tlm;
          Alcotest.test_case "exp5 check fails on a beaten optimum" `Quick
            test_exp5_beaten_optimum_fails;
        ] );
      ( "docs",
        [
          Alcotest.test_case "EXPERIMENTS.md quotes the reference tables"
            `Quick test_doc_quotes_reference;
        ] );
    ]
