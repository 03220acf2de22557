(* The benchmark harness: regenerates every evaluation artifact of the
   paper (one table per figure, EXP-1..EXP-10, EXP-3M, EXP-A and EXP-F; see
   DESIGN.md for the index) and then runs Bechamel micro-benchmarks over
   the framework's computational kernels.

   The thirteen experiments are independent, so the tables phase runs them
   on a pool of OCaml 5 domains (one experiment per domain at a time);
   tables are printed in experiment order once all have finished.  Every
   run also writes a machine-readable BENCH_results.json (schema in
   README.md) with the host's core count and OCaml version,
   per-experiment wall time, simulation counters and the Bechamel ns/run
   estimates with their sample counts and r²; a tables-only run keeps
   the estimates already in the file.

   Usage:  dune exec bench/main.exe                 (everything)
           dune exec bench/main.exe -- quick        (small experiment sizes)
           dune exec bench/main.exe -- tables       (skip microbenchmarks)
           dune exec bench/main.exe -- -j N         (worker-domain count)
           dune exec bench/main.exe -- docs         (rewrite the tables
                                                     EXPERIMENTS.md quotes) *)

module Obs = Codesign_obs
module Registry = Codesign_experiments.Registry
module Kernel = Codesign_sim.Kernel

(* ------------------------------------------------------------------ *)
(* domain-parallel experiment tables                                   *)
(* ------------------------------------------------------------------ *)

type exp_result = {
  entry : Registry.entry;
  table : string;
  measured : Obs.Bench_report.experiment;
}

(* Runs one experiment on the calling domain, attributing the simulation
   work it causes via the domain-local kernel counters.  Experiments run
   with internal jobs:1 — the tables phase is already parallel across
   experiments, so nesting another fan-out per experiment would only
   oversubscribe the machine. *)
let run_one ~quick (entry : Registry.entry) =
  let before = Kernel.domain_totals () in
  let t0 = Obs.Clock.now_ns () in
  let table = entry.Registry.run ~quick ~jobs:1 () in
  let wall_s = Obs.Clock.elapsed_s ~since:t0 in
  let after = Kernel.domain_totals () in
  {
    entry;
    table;
    measured =
      {
        Obs.Bench_report.name = entry.Registry.exp_id;
        wall_s;
        events = after.Kernel.d_events - before.Kernel.d_events;
        activations = after.Kernel.d_activations - before.Kernel.d_activations;
        scheduled = after.Kernel.d_scheduled - before.Kernel.d_scheduled;
        kernels = after.Kernel.d_kernels - before.Kernel.d_kernels;
        table_checksum = Obs.Checksum.of_string table;
      };
  }

let run_tables ~quick ~jobs =
  let entries = Array.of_list Registry.all in
  let t0 = Obs.Clock.now_ns () in
  let results =
    Codesign_par.Domain_pool.map ~jobs
      ~name:(fun i -> entries.(i).Registry.exp_id)
      (run_one ~quick) entries
  in
  let tables_wall_s = Obs.Clock.elapsed_s ~since:t0 in
  (Array.to_list results, tables_wall_s)

let print_tables ~jobs results tables_wall_s =
  print_endline
    "=================================================================";
  print_endline
    " Reproduction of: The Design of Mixed Hardware/Software Systems";
  print_endline " (Adams & Thomas, DAC 1996) -- experiment tables";
  print_endline
    "=================================================================\n";
  List.iter
    (fun r ->
      print_endline r.table;
      Printf.printf "(%s generated in %.2fs, %d kernel events)\n\n"
        r.measured.Obs.Bench_report.name r.measured.Obs.Bench_report.wall_s
        r.measured.Obs.Bench_report.events)
    results;
  Printf.printf "(tables phase: %.2fs on %d worker domain%s)\n\n"
    tables_wall_s jobs
    (if jobs = 1 then "" else "s")

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the framework's computational kernels  *)
(* ------------------------------------------------------------------ *)

module B = Codesign_ir.Behavior
module Tgff = Codesign_workloads.Tgff
module Kernels = Codesign_workloads.Kernels
open Codesign

let bench_event_kernel () =
  let k = Codesign_sim.Kernel.create () in
  for i = 0 to 9 do
    Codesign_sim.Kernel.spawn k (fun () ->
        for _ = 1 to 100 do
          Codesign_sim.Kernel.wait (1 + i)
        done)
  done;
  ignore (Codesign_sim.Kernel.run k)

(* 48 processes in tied [wait 1] loops, the shape of the 4x8 mesh's
   hardware processes: every wake-up shares its time with 47 others, so
   no wait runs in place and each one is a queued event. *)
let bench_queued_waits () =
  let k = Codesign_sim.Kernel.create () in
  for _ = 1 to 48 do
    Codesign_sim.Kernel.spawn k (fun () ->
        for _ = 1 to 100 do
          Codesign_sim.Kernel.wait 1
        done)
  done;
  ignore (Codesign_sim.Kernel.run k)

(* The same 48 tied loops as callback processes: each wake-up is a
   queued thunk that calls the loop's continuation, with no effect and
   no fiber to resume. *)
let bench_queued_callbacks () =
  let module K = Codesign_sim.Kernel in
  let k = K.create () in
  for _ = 1 to 48 do
    K.spawn_cb k (fun self ->
        let rec loop n = if n > 0 then K.wait_cb self 1 (fun () -> loop (n - 1)) in
        loop 100)
  done;
  ignore (K.run k)

(* [Behavior.run] over the 48 processes of the 4x8 mesh, outside the
   kernel: channel reads return 0 and writes are dropped, so the entry
   times the behaviour alone (about 11k statements a run). *)
let mesh_behaviors =
  List.map fst
    (Codesign_workloads.Apps.mesh ~stages:4 ~lanes:8 ~count:16 ~work:8 ())
      .Codesign_ir.Process_network.procs

let bench_behavior_mesh () =
  List.iter
    (fun p -> ignore (Codesign_ir.Behavior.run p []))
    mesh_behaviors

let fir_proc, fir_binds =
  let _, p, b = List.find (fun (n, _, _) -> n = "fir") Kernels.all in
  (p, b)

let fir_image, fir_layout = Codesign_isa.Codegen.compile fir_proc
let fir_code = (Codesign_isa.Asm.assemble fir_image).Codesign_isa.Asm.code

let bench_iss () =
  let cpu = Codesign_isa.Cpu.create fir_code in
  Codesign_isa.Codegen.bind fir_layout cpu fir_binds;
  ignore (Codesign_isa.Cpu.run cpu)

(* The execution-tier pair for the same kernel.  [iss/fir-kernel]
   above is the cold one-shot cost — CPU construction, symbolic
   binding, interpreted run.  The two steady-state benches below reuse
   one CPU and pre-resolved (address, value) binding writes across
   iterations, the shape of every repeated-execution consumer (the
   co-simulation loop creates a CPU once per assignment and reruns it
   per quantum), so each isolates its execution tier:
   [iss/fir-kernel-step] reruns the precise interpreter,
   [iss/fir-kernel-block] reruns the block-compiled tier against the
   warm decoded-block cache.  block-vs-step quotes the pure tier win;
   block-vs-cold additionally amortizes construction and decode — the
   deploy-once-execute-many economics the block tier exists for. *)
let fir_writes = Codesign_isa.Codegen.resolve fir_layout fir_binds

let fir_rerun cpu run =
  Codesign_isa.Cpu.reset cpu;
  List.iter (fun (a, v) -> Codesign_isa.Cpu.write_mem cpu a v) fir_writes;
  ignore (run cpu)

let fir_step_cpu = Codesign_isa.Cpu.create fir_code
let fir_block_cpu = Codesign_isa.Cpu.create fir_code
let bench_iss_step () = fir_rerun fir_step_cpu (fun c -> Codesign_isa.Cpu.run c)

let bench_iss_block () =
  fir_rerun fir_block_cpu (fun c -> Codesign_isa.Cpu.run_compiled c)

let dct_block =
  let g = B.elaborate (Kernels.dct8 ()) in
  List.hd g.Codesign_ir.Cdfg.blocks

let bench_list_schedule () =
  ignore
    (Codesign_hls.Sched.list_schedule dct_block
       ~resources:[ ("mul", 2); ("alu", 2) ])

let bench_hls_full () = ignore (Codesign_hls.Hls.synthesize_block dct_block)

let part_graph =
  Tgff.generate { Tgff.default_spec with Tgff.seed = 42; n_tasks = 12 }

let bench_partition_kl () = ignore (Partition.kl part_graph)

let cosynth_pb =
  let g =
    Tgff.generate
      { Tgff.default_spec with Tgff.seed = 1; n_tasks = 6; layers = 3;
        deadline_factor = 1.2 }
  in
  let exec =
    Array.map
      (fun (t : Codesign_ir.Task_graph.task) ->
        [| max 1 (t.Codesign_ir.Task_graph.sw_cycles / 4);
           max 1 (t.Codesign_ir.Task_graph.sw_cycles / 2);
           t.Codesign_ir.Task_graph.sw_cycles |])
      g.Codesign_ir.Task_graph.tasks
  in
  Cosynth.problem g
    [ { Cosynth.pt_name = "fast"; price = 100 };
      { Cosynth.pt_name = "mid"; price = 40 };
      { Cosynth.pt_name = "slow"; price = 15 } ]
    ~exec

let bench_sos () = ignore (Cosynth.sos cosynth_pb)

let bench_cosim_tlm () =
  ignore
    (Cosim.run_echo_assignment ~levels:(Cosim.pure Cosim.Transaction) ~items:4
       ~work:4 ())

let bench_asip () = ignore (Asip.design fir_proc fir_binds)

(* A 16-wide, 4-stage registered mixing pipeline (xor/and/not layers
   between DFF ranks): 192 combinational gates + 64 flops, a
   representative mix for the netlist-simulation kernels.  The same
   circuit runs on the compiled backend and on the pre-compile
   interpreted reference, so the pair quotes the compile step's win. *)
module NB = Codesign_rtl.Netlist.Builder

let logic_sim_net =
  let b = NB.create ~name:"bench_pipe" () in
  let ins = List.init 16 (fun i -> NB.input b (Printf.sprintf "i%d" i)) in
  let rec rounds k nets =
    if k = 0 then nets
    else
      let arr = Array.of_list nets in
      let w = Array.length arr in
      let mixed =
        List.mapi
          (fun idx x ->
            NB.xor2 b x
              (NB.and2 b arr.((idx + 3) mod w) (NB.not1 b arr.((idx + 7) mod w))))
          nets
      in
      rounds (k - 1) (List.map (NB.dff b) mixed)
  in
  let outs = rounds 4 ins in
  List.iteri (fun i n -> NB.output b (Printf.sprintf "o%d" i) n) outs;
  NB.finish b

module L = Codesign_rtl.Logic_sim
module Interp = Codesign_reference.Logic_interp

let logic_sim_compiled = L.create logic_sim_net
let logic_sim_interp = Interp.create logic_sim_net

let bench_logic_sim () =
  L.set_input logic_sim_compiled "i0" 1;
  for _ = 1 to 100 do
    L.clock_cycle logic_sim_compiled
  done

let bench_logic_sim_interp () =
  Interp.set_input logic_sim_interp "i0" 1;
  for _ = 1 to 100 do
    Interp.clock_cycle logic_sim_interp
  done

(* The raw event-wheel drain: push 1k events at scattered times, then
   pop them back through the allocation-free [pop_into] path the kernel
   dispatch loop uses. *)
let bench_event_drain () =
  let q = Codesign_sim.Event_queue.create () in
  for i = 1 to 1000 do
    Codesign_sim.Event_queue.push q ~time:(i * 7919 land 1023) ignore
  done;
  let slot = Codesign_sim.Event_queue.slot () in
  while Codesign_sim.Event_queue.pop_into q ~limit:max_int slot do
    slot.Codesign_sim.Event_queue.s_thunk ()
  done

(* The fault-campaign sweep through both engines, on a deliberately
   boot-heavy shape (warm-up >> injection window): the fork engine pays
   for the warm-up once per mechanism and replays it from a checkpoint
   for every rate cell, while the rerun reference re-executes it from
   cycle zero each time.  Both must produce byte-identical reports
   (asserted in test_snapshot and CI); here we only measure the cost. *)
module Campaign = Codesign_fault.Campaign

let bench_campaign_fork () =
  ignore (Campaign.sweep ~seed:42 ~ops:64 ~warmup:512 Campaign.Fork)

let bench_campaign_rerun () =
  ignore (Campaign.sweep ~seed:42 ~ops:64 ~warmup:512 Campaign.Rerun)

(* The domain-parallel twin: the same fork-engine sweep sharded one
   mechanism per worker domain.  It must produce a byte-identical
   report to the serial sweep (asserted in test_parallel and CI), so
   the pair quotes the pure scheduling win.  Always 4 domains, not
   capped at the core count: on a multi-core host the pair measures the
   scaling, on a single-core host it honestly measures the pool's
   overhead — the jobs-independent report means it can never trade
   correctness either way. *)
let bench_campaign_parallel () =
  ignore (Campaign.sweep ~seed:42 ~ops:64 ~warmup:512 ~jobs:4 Campaign.Fork)

(* One fault mechanism on its own: [Campaign.run_cell] builds a fresh
   world and runs a fault-free baseline cell and one cell at rate 0.05,
   each over a 32-transfer warm-up and a 64-transfer window, so the
   four entries split the sweep's cost by mechanism. *)
let bench_cell mechanism () =
  ignore (Campaign.run_cell ~seed:42 ~ops:64 ~rate:0.05 mechanism)

(* The budgeted-run pair: the same 1k-wakeup network drained by a raw
   Kernel.run and by Budget.run_kernel with generous fuel and a wall
   deadline (so the ?stop polling path is exercised but never fires).
   The pair quotes the whole price of supervision on the kernel hot
   path: the wall clock is read only every 256 events, but a run with
   a deadline queues every wait, so it never advances the clock in
   place as the raw run can. *)
module Budget = Codesign_resil.Budget

let budget_net () =
  let k = Codesign_sim.Kernel.create () in
  for p = 0 to 9 do
    Codesign_sim.Kernel.spawn k (fun () ->
        for _ = 1 to 100 do
          Codesign_sim.Kernel.wait (1 + (p mod 7))
        done)
  done;
  k

let bench_kernel_unbudgeted () =
  ignore (Codesign_sim.Kernel.run (budget_net ()))

let bench_kernel_budgeted () =
  ignore
    (Budget.run_kernel
       (Budget.with_fuel (Budget.create ~deadline_ms:60_000 ()) ~fuel:1_000_000)
       (budget_net ()))

(* The partitioned-vs-serial kernel pair: the same wide pipeline mesh
   (every hop a latency channel, so every cut has lookahead) on one
   event wheel and on a 4-partition conservative plan, dealt onto
   min(4, cores) domains.  The two runs are byte-identical in every
   observable (EXP-P asserts this).  This mesh is small (8 items, a
   few events per partition per round), so the pair quotes what the
   LBTS barrier rounds and domain hand-offs cost on top of the serial
   dispatch, not a speed-up; on one core the plan runs serially. *)
let mesh_net = Codesign_workloads.Apps.mesh ~stages:3 ~lanes:4 ~count:8 ~work:4 ()

let mesh_map =
  Codesign_workloads.Apps.mesh_partition ~stages:3 ~lanes:4 ~partitions:4 ()

let bench_mesh_serial () = ignore (Cosim.run_network mesh_net)

let bench_mesh_partitioned () =
  ignore (Cosim.run_network ~partition:mesh_map mesh_net)

(* Returns the rows — OLS ns/run estimate, the samples it was fitted to
   and its r² — alongside printing them, so the JSON artifact carries
   the same numbers as the text report. *)
let run_microbenchmarks () =
  let open Bechamel in
  let test name f = Test.make ~name (Staged.stage f) in
  let tests =
    Test.make_grouped ~name:"codesign"
      [
        test "event-kernel/1k-wakeups" bench_event_kernel;
        test "event-kernel/48-queued-waits" bench_queued_waits;
        test "event-kernel/48-queued-callbacks" bench_queued_callbacks;
        test "ir/behavior-mesh" bench_behavior_mesh;
        test "iss/fir-kernel" bench_iss;
        test "iss/fir-kernel-step" bench_iss_step;
        test "iss/fir-kernel-block" bench_iss_block;
        test "hls/list-schedule-dct8" bench_list_schedule;
        test "hls/full-synthesis-dct8" bench_hls_full;
        test "partition/kl-12-tasks" bench_partition_kl;
        test "cosynth/sos-6-tasks" bench_sos;
        test "cosim/tlm-echo" bench_cosim_tlm;
        test "asip/design-fir" bench_asip;
        test "logic_sim/pipe-100-cycles" bench_logic_sim;
        test "logic_sim/pipe-100-cycles-interp" bench_logic_sim_interp;
        test "event-drain/1k-events" bench_event_drain;
        test "fault/campaign-fork" bench_campaign_fork;
        test "fault/campaign-rerun" bench_campaign_rerun;
        test "fault/campaign-parallel" bench_campaign_parallel;
        test "fault/cell-pin" (bench_cell Campaign.Pin);
        test "fault/cell-tlm" (bench_cell Campaign.Tlm);
        test "fault/cell-token" (bench_cell Campaign.Token);
        test "fault/cell-degrade" (bench_cell Campaign.Degrade);
        test "resil/1k-wakeups-unbudgeted" bench_kernel_unbudgeted;
        test "resil/1k-wakeups-budgeted" bench_kernel_budgeted;
        test "kernel/mesh-serial" bench_mesh_serial;
        test "kernel/mesh-partitioned" bench_mesh_partitioned;
      ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 2.0) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let merged = Analyze.merge ols instances results in
  print_endline "Micro-benchmarks (monotonic clock, ns per run):";
  let clock =
    Hashtbl.find merged (Measure.label Toolkit.Instance.monotonic_clock)
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ e ] ->
          let r_square =
            match Analyze.OLS.r_square ols_result with
            | Some r when Float.is_finite r -> Some r
            | _ -> None
          in
          rows :=
            {
              Obs.Bench_report.m_name = name;
              ns_per_run = e;
              samples = Some (Hashtbl.find raw name).Benchmark.stats.samples;
              r_square;
            }
            :: !rows
      | _ -> ())
    clock;
  let rows = List.sort compare !rows in
  List.iter
    (fun (m : Obs.Bench_report.micro) ->
      Printf.printf "  %-40s %12.0f ns  (n=%d, r²=%s)\n"
        m.Obs.Bench_report.m_name m.Obs.Bench_report.ns_per_run
        (Option.value m.Obs.Bench_report.samples ~default:0)
        (match m.Obs.Bench_report.r_square with
        | Some r -> Printf.sprintf "%.4f" r
        | None -> "n/a"))
    rows;
  rows

(* ------------------------------------------------------------------ *)
(* EXPERIMENTS.md quotes the reference tables                           *)
(* ------------------------------------------------------------------ *)

(* Every table bench_tables_reference.txt holds, keyed by the id its
   title starts with ("EXP-3", "EXP-5b", ...); a second table under the
   same id is "ID/2".  A table is its title line plus the boxed rows
   below it. *)
let reference_tables text =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let n = Array.length lines in
  let boxed i =
    i < n && lines.(i) <> "" && (lines.(i).[0] = '+' || lines.(i).[0] = '|')
  in
  let seen = Hashtbl.create 32 in
  let tables = ref [] in
  for i = 0 to n - 2 do
    if String.starts_with ~prefix:"EXP-" lines.(i) && boxed (i + 1) then begin
      let id =
        List.hd (String.split_on_char ' ' lines.(i))
        |> String.split_on_char ':' |> List.hd
      in
      let k = 1 + Option.value (Hashtbl.find_opt seen id) ~default:0 in
      Hashtbl.replace seen id k;
      let key = if k = 1 then id else Printf.sprintf "%s/%d" id k in
      let j = ref (i + 1) in
      while boxed !j do incr j done;
      tables := (key, Array.to_list (Array.sub lines i (!j - i))) :: !tables
    end
  done;
  List.rev !tables

(* Rewrite every "```table ID" fenced block of [doc] with the reference
   table ID, verbatim.  Returns the new text and the number of blocks. *)
let quote_tables ~reference doc =
  let tables = reference_tables reference in
  let out = Buffer.create (String.length doc) in
  let emit l = Buffer.add_string out l; Buffer.add_char out '\n' in
  let count = ref 0 in
  let rec go = function
    | [] -> ()
    | l :: rest when String.starts_with ~prefix:"```table " l ->
        let key = String.trim (String.sub l 9 (String.length l - 9)) in
        (match List.assoc_opt key tables with
        | None -> failwith ("EXPERIMENTS.md: no reference table " ^ key)
        | Some rows ->
            incr count;
            emit l;
            List.iter emit rows;
            emit "```");
        let rec skip = function
          | "```" :: rest -> rest
          | _ :: rest -> skip rest
          | [] -> failwith ("EXPERIMENTS.md: unclosed table block " ^ key)
        in
        go (skip rest)
    | [ l ] -> Buffer.add_string out l
    | l :: rest -> emit l; go rest
  in
  go (String.split_on_char '\n' doc);
  (Buffer.contents out, !count)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* [bench/main.exe docs]: rewrite the quoted tables of EXPERIMENTS.md
   from bench_tables_reference.txt, both in the current directory. *)
let write_docs () =
  let doc = read_file "EXPERIMENTS.md" in
  let text, n =
    quote_tables ~reference:(read_file "bench_tables_reference.txt") doc
  in
  if text <> doc then
    Out_channel.with_open_bin "EXPERIMENTS.md" (fun oc ->
        Out_channel.output_string oc text);
  Printf.printf "EXPERIMENTS.md: %d tables quoted%s\n" n
    (if text <> doc then ", rewritten" else ", unchanged")

(* ------------------------------------------------------------------ *)

let report_path = "BENCH_results.json"

let () =
  let args = Array.to_list Sys.argv in
  if List.mem "docs" args then begin
    write_docs ();
    exit 0
  end;
  let quick = List.mem "quick" args in
  let tables_only = List.mem "tables" args in
  let jobs =
    let rec find = function
      | ("-j" | "--jobs") :: n :: _ -> (
          match int_of_string_opt n with
          | Some j -> j
          | None ->
              Printf.eprintf "bench: -j expects an integer, got %S\n" n;
              exit 2)
      | _ :: rest -> find rest
      | [] ->
          min (List.length Registry.all)
            (max 1 (Domain.recommended_domain_count ()))
    in
    max 1 (find args)
  in
  let results, tables_wall_s = run_tables ~quick ~jobs in
  print_tables ~jobs results tables_wall_s;
  let micros =
    if tables_only then
      (* measure none, keep the entries already recorded (none when the
         file is missing or unreadable) *)
      match Obs.Bench_report.read ~path:report_path with
      | Ok previous -> previous.Obs.Bench_report.microbenchmarks
      | Error _ -> []
    else run_microbenchmarks ()
  in
  let report =
    {
      Obs.Bench_report.schema_version = Obs.Bench_report.schema_version;
      mode = (if quick then "quick" else "full");
      domains = jobs;
      recommended_domains = Some (Domain.recommended_domain_count ());
      ocaml_version = Some Sys.ocaml_version;
      tables_wall_s;
      experiments = List.map (fun r -> r.measured) results;
      microbenchmarks = micros;
    }
  in
  Obs.Bench_report.write ~path:report_path report;
  Printf.printf "\n(wrote %s: %d experiments, %d microbenchmarks)\n"
    report_path
    (List.length report.Obs.Bench_report.experiments)
    (List.length report.Obs.Bench_report.microbenchmarks)
