(* fuzz: the differential fuzzer's verification loop, one case per op
   ([Fuzz.run ~seed:case ~count:1], so every op replays on its own with
   [codesign_cli fuzz --seed case --count 1]).

   Each block of 8 ops holds one task-graph case and seven behaviour
   cases, the campaign's one-in-eight task-graph share.  The task-graph
   cases are picked so that each round of 11 blocks holds every graph
   size from 4 to 14 tasks once: they dominate the cost and their cost
   grows steeply with size, so this keeps a run's cost from hanging on
   the sizes its seed drew.  Ladder cases (one in sixteen in a
   campaign) are left out: their mixed-assignment oracle flags about
   one case in 300 on the seeds drawn here, and an op that fails cannot
   be timed; the cosim workload covers the ladder instead.  Behaviour
   cases set the median op time, task-graph cases the 90th percentile.
   Traced runs replay each behaviour case's oracle legs through the
   same public calls to split its time by layer. *)

module Rng = Codesign_ir.Rng
module B = Codesign_ir.Behavior
module C = Codesign_ir.Cdfg
module Pn = Codesign_ir.Process_network
module Json = Codesign_obs.Json
module Checksum = Codesign_obs.Checksum
module Fuzz_report = Codesign_obs.Fuzz_report
module Codegen = Codesign_isa.Codegen
module Asm = Codesign_isa.Asm
module Cpu = Codesign_isa.Cpu
module Hls = Codesign_hls.Hls
module F = Codesign_rtl.Fsmd
module Cosim = Codesign.Cosim
module Fuzz = Codesign_fuzz.Fuzz
module Gen = Codesign_fuzz.Gen
module Diff = Codesign_fuzz.Diff
open Workload

let blocks_per_round = 11
let min_tasks = 4

(* [Fuzz] dispatches on the low four bits of the case seed: slots 1
   and 2 are task-graph cases, 0 the ladder, the rest behaviours. *)
let slot cs = cs land 15
let is_taskgraph cs = slot cs = 1 || slot cs = 2

(* Statement fuel of [Diff.check_behavior]. *)
let fuel = 300_000

(* The FSMD leg of the behaviour oracle: the same eligible blocks,
   schedulers and input environment as [Diff]'s RTL check. *)
let rtl_legs tr p =
  let leg name cat f = Trace.with_span tr ~name ~cat f in
  let cdfg = leg "Behavior.elaborate" "hls" (fun () -> B.elaborate p) in
  let memory_free (b : C.block) =
    b.C.ops <> []
    && List.for_all
         (fun (o : C.op) ->
           match o.C.opcode with C.Load _ | C.Store _ -> false | _ -> true)
         b.C.ops
  in
  let io_hazard_free (b : C.block) =
    let written = Hashtbl.create 4 in
    List.for_all
      (fun (o : C.op) ->
        match o.C.opcode with
        | C.Read nm when String.contains nm ':' -> not (Hashtbl.mem written nm)
        | C.Write nm when String.contains nm ':' ->
            (not (Hashtbl.mem written nm)) && (Hashtbl.add written nm (); true)
        | _ -> true)
      b.C.ops
  in
  let blocks = List.filter (fun b -> memory_free b && io_hazard_free b) cdfg.C.blocks in
  List.iter
    (fun (b : C.block) ->
      let envf name =
        let key = p.B.name ^ "/" ^ b.C.label ^ "/" ^ name in
        Int64.to_int (Checksum.fnv1a64 key) land 15
      in
      let regs =
        List.filter_map
          (fun (o : C.op) ->
            match o.C.opcode with
            | C.Read nm when not (String.contains nm ':') -> Some (nm, envf nm)
            | _ -> None)
          b.C.ops
      in
      List.iter
        (fun scheduler ->
          let fsmd, _ =
            leg "Hls.synthesize_block" "hls" (fun () ->
                Hls.synthesize_block ~name:b.C.label ~scheduler b)
          in
          let env = { F.null_env with F.input = envf; output = (fun _ _ -> ()) } in
          ignore (leg "Fsmd.run" "rtl" (fun () -> F.run ~env ~regs fsmd)))
        [ Hls.List_sched Hls.default_resources; Hls.Asap_sched ])
    blocks;
  2 * List.length blocks

(* The legs of [Diff.check_behavior] in its order, stopping where it
   stops; returns the replay's instruction and FSMD-run counts. *)
let replay_behavior cs tr =
  let leg ?(args = []) name cat f = Trace.with_span tr ~name ~cat ~args f in
  let p = Diff.normalize (Gen.behavior (Rng.create cs)) in
  let terminates =
    leg "Behavior.run" "ir" (fun () ->
        let io, _ = B.collecting_io () in
        match B.run ~io ~fuel p [] with
        | _ -> true
        | exception Invalid_argument _ -> false)
  in
  if not terminates then []
  else
    let code =
      leg "Codegen.compile" "isa" (fun () ->
          (Asm.assemble (fst (Codegen.compile p))).Asm.code)
    in
    let tier name run =
      let cpu = leg "Cpu.create" "isa" (fun () -> Cpu.create code) in
      ignore (leg name "isa" (fun () -> run cpu));
      cpu
    in
    let cpu = tier "Cpu.run" (fun c -> Cpu.run ~fuel:(40 * fuel) c) in
    ignore (tier "Cpu.run_compiled" (fun c -> Cpu.run_compiled ~fuel:(40 * fuel) c));
    let network mapping =
      let net = Pn.make ~name:p.B.name [ (p, mapping) ] [] in
      ignore
        (leg "Cosim.run_network" "core.cosim"
           ~args:[ ("kind", Json.Str (if mapping = Pn.Sw then "sw" else "hw")) ]
           (fun () -> Cosim.run_network net))
    in
    network Pn.Sw;
    network Pn.Hw;
    [ ("isa.instret", Cpu.instret cpu); ("replay.rtl.fsmd_blocks", rtl_legs tr p) ]

let case_op cs =
  let cat = if is_taskgraph cs then "taskgraph" else "behavior" in
  op ~label:"Fuzz.run" ~layer:"fuzz" ~kind:cat
    ?replay:(if cat = "behavior" then Some (replay_behavior cs) else None)
    (fun () ->
      let r = Fuzz.run ~seed:cs ~count:1 () in
      fun () ->
        let cases =
          [
            ("behavior", r.Fuzz_report.behavior_cases);
            ("taskgraph", r.Fuzz_report.taskgraph_cases);
          ]
        in
        let error =
          (match r.Fuzz_report.failures with
          | [] -> None
          | f :: _ -> Some (Printf.sprintf "case %d: %s" cs f.Fuzz_report.f_detail))
          <|> (fun () ->
          match r.Fuzz_report.degraded with
          | [] -> None
          | (_, d) :: _ ->
              let e = d.Codesign_obs.Degraded.error in
              Some (Printf.sprintf "case %d degraded: %s" cs e))
          <|> fun () ->
          if List.assoc cat cases <> 1 || r.Fuzz_report.count <> 1 then
            Some (Printf.sprintf "case %d did not run as a %s case" cs cat)
          else None
        in
        check
          ~counts:
            (("rtl.fsmd_blocks", r.Fuzz_report.rtl_blocks)
            :: List.map (fun (c, n) -> ("fuzz." ^ c ^ ".cases", n)) cases)
          (Json.to_string (Fuzz_report.to_json { r with Fuzz_report.wall_s = 0. }))
          error)

(* Round [r] draws its cases from its own window of case seeds: one
   cursor per category scans the window upward, so no case repeats. *)
let round ~seed r =
  let base = ((seed * 1_000_003) + r) lsl 16 in
  let cursor accept =
    let next = ref base in
    fun want ->
      while not (accept !next want) do incr next done;
      incr next;
      !next - 1
  in
  let tg_size cs = (Gen.tgff_spec (Rng.create cs)).Codesign_workloads.Tgff.n_tasks in
  let taskgraph = cursor (fun cs n -> is_taskgraph cs && tg_size cs = n) in
  let behavior = cursor (fun cs () -> slot cs > 2) in
  List.concat
    (List.init blocks_per_round (fun b ->
         let t = taskgraph (min_tasks + b) in
         List.map case_op (t :: List.init 7 (fun _ -> behavior ()))))

let layers spans ~counts =
  let count k = float_of_int (Option.value (List.assoc_opt k counts) ~default:0) in
  let leg name = replayed name spans in
  let net kind =
    Trace.total spans ~pred:(fun s ->
        s.Trace.name = "Cosim.run_network" && Trace.arg_str "kind" s = kind)
  in
  let hls = Trace.total spans ~pred:(fun s -> s.Trace.cat = "hls") in
  let legs =
    [
      ("ir.interp_s", leg "Behavior.run");
      ("isa.codegen_s", leg "Codegen.compile");
      ("isa.cpu_create_s", leg "Cpu.create");
      ("isa.step_s", leg "Cpu.run");
      ("isa.block_s", leg "Cpu.run_compiled");
      ("core.cosim.network_sw_s", net "sw");
      ("core.cosim.network_hw_s", net "hw");
      ("hls.synthesize_s", hls);
      ("rtl.fsmd_run_s", leg "Fsmd.run");
    ]
  in
  let busy_of cat = busy spans ~pred:(fun s -> Trace.arg_str "kind" s = cat) in
  if count "replay.rtl.fsmd_blocks" <> count "rtl.fsmd_blocks" then
    prerr_endline
      "perfbench: warning: the FSMD replay no longer mirrors Diff's RTL check";
  legs
  @ [
      ("isa.instret", count "isa.instret");
      ("rtl.fsmd_blocks", count "rtl.fsmd_blocks");
      ("fuzz.oracle_self_s", busy_of "behavior" -. Stats.sum (List.map snd legs));
    ]
  @ List.concat_map
      (fun c ->
        let cases = "fuzz." ^ c ^ ".cases" in
        [ ("fuzz." ^ c ^ ".busy_s", busy_of c); (cases, count cases) ])
      [ "behavior"; "taskgraph" ]

let make ~seed =
  { round = round ~seed; prefix_rounds = 4; smoke_ops = 8; layers }
