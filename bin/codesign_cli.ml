(* codesign — command-line front end to the co-design framework.

     dune exec bin/codesign_cli.exe -- <command> ...

   Commands:
     experiments [-q] [--jobs N] [--json] [NAME...]
                                    print experiment tables (default all)
     partition   [options]          partition a generated task graph
     cosynth     [options]          heterogeneous multiprocessor synthesis
     asip        KERNEL [options]   instruction-set extension flow
     cosim       [--level L|SRC:CPU:SINK] [--json]
                                    co-simulate the echo system
     fuzz        [--seed N] [--count N] [--fault] [--jobs N] [--json]
                                    cross-level differential fuzz
     fault       [--seed N] [--ops N] [--quick] [--jobs N] [--json]
                 [--chaos trap|hang] [--cell-fuel N] [--out FILE]
                                    deterministic fault-injection campaign
     kernels                        list the benchmark kernels
     disasm      KERNEL             show a kernel's compiled assembly

   fuzz, fault and experiments take --jobs N: the work shards over the
   shared Domain_pool and merges by task index, so reports and tables
   are byte-identical at every N.  They also take --max-retries N and
   --deadline-ms MS: each unit of work runs under Resil.Supervisor, so a
   failing one is retried and then recorded as degraded while the run
   completes.
   Unknown subcommands or flags exit 2 with usage on stderr.             *)

open Cmdliner
open Codesign
module T = Codesign_ir.Task_graph
module Tgff = Codesign_workloads.Tgff
module Kernels = Codesign_workloads.Kernels
module Registry = Codesign_experiments.Registry
module Obs = Codesign_obs
module Resil = Codesign_resil

(* cmdliner 1.3 reports unknown subcommands / flags and term-level
   failures (e.g. fuzz disagreements) alike as [Error `Term]; what
   separates them is that a parse error never runs a command body.
   Every body flips this on entry, and the exit mapping at the bottom
   turns body-less [`Term] errors into the conventional exit 2. *)
let command_ran = ref false

let started f =
  Term.(
    const (fun x ->
        command_ran := true;
        x)
    $ f)

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Machine-readable JSON output instead of text.")

(* ------------------------------------------------------------------ *)
(* shared arguments                                                    *)
(* ------------------------------------------------------------------ *)

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Workload seed.")

(* An integer flag with a range: a value outside it is a parse error
   (one line on stderr, exit 2), never an exception or a silently empty
   run inside the library. *)
let int_in lo hi =
  let parse s =
    match int_of_string_opt s with
    | None ->
        Error (`Msg (Printf.sprintf "invalid value '%s', expected an integer" s))
    | Some n when n < lo ->
        Error (`Msg (Printf.sprintf "%d is below the minimum %d" n lo))
    | Some n when n > hi ->
        Error (`Msg (Printf.sprintf "%d is above the maximum %d" n hi))
    | Some n -> Ok n
  in
  Arg.conv (parse, Format.pp_print_int)

let int_at_least lo = int_in lo max_int

(* Shared by fuzz / fault / experiments: every parallel path merges
   results by task index on the Domain_pool, so output is byte-identical
   at any job count — N only changes wall time. *)
let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker-domain count (default 1).  Reports and tables are \
           byte-identical for every $(docv): parallel results merge \
           deterministically by task index.")

(* Shared by fuzz / fault / experiments: instead of aborting, a failing
   unit of work (fuzz case, sweep cell, experiment) is retried in place
   and then recorded as degraded while the run completes. *)
let max_retries_arg =
  Arg.(
    value
    & opt (some (int_at_least 0)) None
    & info [ "max-retries" ] ~docv:"N"
        ~doc:
          "Retry a failing unit of work (fuzz case, sweep cell, \
           experiment) up to $(docv) extra times before recording it as \
           degraded.  Defaults: fault 2, fuzz 0, experiments 0.")

let deadline_arg =
  Arg.(
    value
    & opt (some (int_at_least 1)) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Wall-clock deadline for the whole run; work not started when \
           it passes is recorded as degraded (\"deadline exceeded\") \
           instead of run.  A retry counts as work not started: an \
           attempt the deadline cuts off is not retried.  Default: none.")

(* Every layer of the generated task graph needs a task. *)
let tasks_arg =
  Arg.(
    value
    & opt (int_at_least Tgff.default_spec.Tgff.layers) 12
    & info [ "tasks" ] ~docv:"N" ~doc:"Number of tasks in the workload.")

let kernel_arg =
  let kconv =
    Arg.enum (List.map (fun ((n, _, _) as k) -> (n, k)) Kernels.all)
  in
  Arg.(
    required
    & pos 0 (some kconv) None
    & info [] ~docv:"KERNEL" ~doc:"Benchmark kernel name.")

(* ------------------------------------------------------------------ *)
(* experiments                                                         *)
(* ------------------------------------------------------------------ *)

(* An experiment past the wall deadline, or still raising after its
   retries, degrades (skipped / recorded) instead of aborting the run. *)
let run_experiment ~budget ~max_retries ~quick ~jobs (e : Registry.entry) =
  Resil.Supervisor.run ~max_retries ~budget ~restore:ignore (fun () ->
      Ok (e.Registry.run ~quick ~jobs ()))
  |> Result.map_error (fun { Obs.Degraded.error; attempts; _ } ->
         if attempts = 0 then error
         else Printf.sprintf "%s (after %d attempts)" error attempts)

(* One experiment's JSON record, with the same measurement wrapper the
   bench harness uses, so CLI JSON records match BENCH_results.json
   entries.  A degraded experiment's record carries a ["degraded"]
   member instead of the table. *)
let measure_experiment ~budget ~max_retries ~quick ~jobs (e : Registry.entry) =
  let module K = Codesign_sim.Kernel in
  let before = K.domain_totals () in
  let t0 = Obs.Clock.now_ns () in
  let outcome = run_experiment ~budget ~max_retries ~quick ~jobs e in
  let wall_s = Obs.Clock.elapsed_s ~since:t0 in
  let after = K.domain_totals () in
  let base =
    [
      ("name", Obs.Json.Str e.Registry.exp_id);
      ("wall_s", Obs.Json.Float wall_s);
      ("events", Obs.Json.Int (after.K.d_events - before.K.d_events));
      ( "activations",
        Obs.Json.Int (after.K.d_activations - before.K.d_activations) );
      ("scheduled", Obs.Json.Int (after.K.d_scheduled - before.K.d_scheduled));
      ("kernels", Obs.Json.Int (after.K.d_kernels - before.K.d_kernels));
    ]
  in
  Obs.Json.Obj
    (base
    @
    match outcome with
    | Ok table ->
        [
          ("table_checksum", Obs.Json.Str (Obs.Checksum.of_string table));
          ("table", Obs.Json.Str table);
        ]
    | Error msg -> [ ("degraded", Obs.Json.Str msg) ])

let experiments_cmd =
  let quick =
    Arg.(value & flag & info [ "q"; "quick" ] ~doc:"Small problem sizes.")
  in
  let names =
    let name_conv =
      Arg.enum
        (List.concat_map
           (fun (e : Registry.entry) ->
             [ (e.Registry.cli_name, e); (e.Registry.exp_id, e) ])
           Registry.all)
    in
    Arg.(
      value & pos_all name_conv []
      & info [] ~docv:"NAME"
          ~doc:
            (Printf.sprintf
               "Experiments to run (default all): %s.  Each also answers to \
                its paper id, e.g. EXP-3M."
               (String.concat ", "
                  (List.map (fun (e : Registry.entry) -> e.Registry.cli_name)
                     Registry.all))))
  in
  let run quick jobs json max_retries deadline_ms names =
    let selected =
      match names with
      | [] -> Registry.all
      | _ -> List.filter (fun e -> List.memq e names) Registry.all
    in
    let budget = Resil.Budget.create ?deadline_ms () in
    let max_retries = Option.value max_retries ~default:0 in
    if json then begin
      let records =
        List.map
          (measure_experiment ~budget ~max_retries ~quick ~jobs)
          selected
      in
      print_endline (Obs.Json.to_string ~pretty:true (Obs.Json.List records))
    end
    else
      List.iter
        (fun (e : Registry.entry) ->
          match run_experiment ~budget ~max_retries ~quick ~jobs e with
          | Ok table -> print_endline table
          | Error msg ->
              Printf.eprintf "codesign: experiment %s degraded: %s\n%!"
                e.Registry.exp_id msg)
        selected
  in
  Cmd.v
    (Cmd.info "experiments" ~doc:"Print reproduction experiment tables.")
    Term.(
      started
        (const run $ quick $ jobs_arg $ json_arg $ max_retries_arg
       $ deadline_arg $ names))

(* ------------------------------------------------------------------ *)
(* partition                                                           *)
(* ------------------------------------------------------------------ *)

let partition_cmd =
  let budget =
    Arg.(
      value
      & opt (some (int_at_least 0)) None
      & info [ "budget" ] ~docv:"AREA" ~doc:"Hardware area budget.")
  in
  let algo =
    Arg.(
      value
      & opt (enum
               [ ("greedy", `Greedy); ("kl", `Kl); ("sa", `Sa);
                 ("gclp", `Gclp); ("exhaustive", `Exhaustive) ])
          `Kl
      & info [ "algo" ] ~docv:"ALGO"
          ~doc:"Algorithm: greedy | kl | sa | gclp | exhaustive.")
  in
  let run seed tasks budget algo =
    if algo = `Exhaustive && tasks > Partition.exhaustive_max_tasks then begin
      Printf.eprintf
        "codesign: option '--tasks': %d is above the maximum %d of --algo \
         exhaustive\n"
        tasks Partition.exhaustive_max_tasks;
      exit 2
    end;
    let g =
      Tgff.generate { Tgff.default_spec with Tgff.seed; n_tasks = tasks }
    in
    Format.printf "%a@.@." T.pp g;
    let r =
      match algo with
      | `Greedy -> Partition.greedy ?max_area:budget g
      | `Kl -> Partition.kl ?max_area:budget g
      | `Sa -> Partition.simulated_annealing ?max_area:budget g
      | `Gclp -> Partition.gclp ?max_area:budget g
      | `Exhaustive -> Partition.exhaustive ?max_area:budget g
    in
    let e = r.Partition.eval in
    Printf.printf
      "%s: latency %d (all-SW %d, speedup %.2fx), hw area %d, %d/%d tasks \
       in hw, deadline %s, %d cost evaluations\n"
      r.Partition.algorithm e.Cost.latency e.Cost.all_sw_latency
      e.Cost.speedup e.Cost.hw_area e.Cost.n_hw (T.n_tasks g)
      (if e.Cost.meets_deadline then "met" else "MISSED")
      r.Partition.evaluations;
    Printf.printf "hardware tasks: %s\n"
      (String.concat ", "
         (List.filteri (fun i _ -> r.Partition.partition.(i))
            (Array.to_list g.T.tasks)
         |> List.map (fun (t : T.task) -> t.T.name)))
  in
  Cmd.v
    (Cmd.info "partition" ~doc:"Partition a generated task graph.")
    Term.(started (const run $ seed_arg $ tasks_arg $ budget $ algo))

(* ------------------------------------------------------------------ *)
(* cosynth                                                             *)
(* ------------------------------------------------------------------ *)

let cosynth_cmd =
  let algo =
    Arg.(
      value
      & opt (enum
               [ ("sos", `Sos); ("binpack", `Binpack);
                 ("sensitivity", `Sensitivity) ])
          `Sos
      & info [ "algo" ] ~docv:"ALGO"
          ~doc:"Algorithm: sos | binpack | sensitivity.")
  in
  let run seed tasks algo =
    let g =
      Tgff.generate
        { Tgff.default_spec with Tgff.seed; n_tasks = tasks;
          deadline_factor = 1.1 }
    in
    let exec =
      Array.map
        (fun (t : T.task) ->
          [| max 1 (t.T.sw_cycles / 4); max 1 (t.T.sw_cycles / 2);
             t.T.sw_cycles |])
        g.T.tasks
    in
    let pb =
      Cosynth.problem g
        [ { Cosynth.pt_name = "fast"; price = 100 };
          { Cosynth.pt_name = "mid"; price = 40 };
          { Cosynth.pt_name = "slow"; price = 15 } ]
        ~exec
    in
    let s =
      match algo with
      | `Sos -> Cosynth.sos pb
      | `Binpack -> Cosynth.binpack pb
      | `Sensitivity -> Cosynth.sensitivity pb
    in
    Format.printf "%a@." (fun f -> Cosynth.pp_solution f pb) s
  in
  Cmd.v
    (Cmd.info "cosynth" ~doc:"Synthesise a heterogeneous multiprocessor.")
    Term.(started (const run $ seed_arg $ tasks_arg $ algo))

(* ------------------------------------------------------------------ *)
(* asip                                                                *)
(* ------------------------------------------------------------------ *)

let asip_cmd =
  let budget =
    Arg.(
      value
      & opt (int_at_least 0) 800
      & info [ "budget" ] ~docv:"AREA" ~doc:"Extension area budget.")
  in
  let run (name, proc, binds) budget =
    let r = Asip.design ~budget proc binds in
    Printf.printf "kernel %s, budget %d:\n" name budget;
    Printf.printf "  occurrences: %s\n"
      (String.concat ", "
         (List.map
            (fun (p, n) -> Printf.sprintf "%s x%d" p n)
            r.Asip.occurrence_counts));
    Printf.printf "  selected:    %s (area %d)\n"
      (match r.Asip.selected with
      | [] -> "-"
      | l -> String.concat "+" (List.map (fun p -> p.Asip.pname) l))
      r.Asip.fu_area;
    Printf.printf "  cycles:      %d -> %d  (%.2fx, %s)\n" r.Asip.base_cycles
      r.Asip.asip_cycles r.Asip.speedup
      (if r.Asip.verified then "verified" else "VERIFY FAILED")
  in
  Cmd.v
    (Cmd.info "asip" ~doc:"Run the ASIP extension flow on a kernel.")
    Term.(started (const run $ kernel_arg $ budget))

(* ------------------------------------------------------------------ *)
(* cosim                                                               *)
(* ------------------------------------------------------------------ *)

let cosim_cmd =
  let levels =
    let parse s =
      Result.map_error (fun e -> `Msg e) (Cosim.parse_assignment s)
    in
    let print ppf a = Format.pp_print_string ppf (Cosim.assignment_name a) in
    Arg.(
      value
      & opt (conv (parse, print)) (Cosim.pure Cosim.Transaction)
      & info [ "level"; "levels" ] ~docv:"LEVEL|SRC:CPU:SINK"
          ~doc:
            "Abstraction level, pin | tlm | driver | message, for the \
             whole system, or a mixed per-component assignment: the \
             level of the source-side interface, the software model, \
             and the sink-side interface (e.g. pin:tlm:message).  \
             Either name spells the same option.")
  in
  let items =
    Arg.(
      value
      & opt (int_at_least 1) 16
      & info [ "items" ] ~docv:"N" ~doc:"Stream length.")
  in
  let quantum =
    Arg.(
      value
      & opt (int_at_least 1) 1
      & info [ "quantum" ] ~docv:"N"
          ~doc:
            "Temporal-decoupling quantum: let the software component \
             run up to $(docv) cycles ahead of the kernel between \
             synchronisation points (1 = classic per-step coupling; \
             larger quanta keep the checksum and trade exact \
             event/activation counts for speed).")
  in
  let partitions =
    Arg.(
      value
      & opt (int_in 1 3) 1
      & info [ "partitions" ] ~docv:"N"
          ~doc:
            "Run the system on a conservatively synchronised \
             partitioned kernel, one domain per partition (1-3): 2 \
             cuts the sink onto its own partition, 3 also cuts the \
             source.  Cut interfaces must be message-level and need \
             $(b,--link-latency) >= 1 for lookahead.  Results are \
             byte-identical to the serial run at the same link \
             latency.")
  in
  let link_latency =
    Arg.(
      value
      & opt (int_at_least 0) 0
      & info [ "link-latency" ] ~docv:"CYCLES"
          ~doc:
            "Delivery latency of the message-level channels (applied \
             in every mode, so serial and partitioned runs stay \
             comparable); doubles as the cross-partition lookahead.")
  in
  let run levels items quantum partitions link_latency json =
    if partitions > 1 && link_latency < 1 then begin
      prerr_endline
        "cosim: --partitions > 1 needs --link-latency >= 1 (a cut \
         channel's latency is the lookahead that lets the partitions \
         synchronise)";
      exit 2
    end;
    let m, wall_s =
      (* partition validation lives in the library (which interfaces are
         cut, lookahead at the cuts); surface it as a CLI error, not an
         uncaught exception *)
      try
        Obs.Clock.time (fun () ->
            Cosim.run_echo_assignment ~levels ~items ~quantum ~partitions
              ~link_latency ())
      with Invalid_argument msg ->
        prerr_endline ("cosim: " ^ msg);
        exit 2
    in
    let outcome_str =
      match m.Cosim.outcome with
      | Cosim.Completed -> "completed"
      | Cosim.Not_halted reason -> "not-halted: " ^ reason
      | Cosim.Exhausted reason -> "exhausted: " ^ reason
    in
    let shown =
      if Cosim.is_pure m.Cosim.assignment then
        Cosim.level_name m.Cosim.level
      else Cosim.assignment_name m.Cosim.assignment
    in
    if json then
      print_endline
        (Obs.Json.to_string ~pretty:true
           (Obs.Json.Obj
              [
                ("level", Obs.Json.Str shown);
                ("levels",
                 Obs.Json.Str (Cosim.assignment_name m.Cosim.assignment));
                ("outcome", Obs.Json.Str outcome_str);
                ("items", Obs.Json.Int items);
                ("quantum", Obs.Json.Int quantum);
                ("partitions", Obs.Json.Int partitions);
                ("link_latency", Obs.Json.Int link_latency);
                ("wall_s", Obs.Json.Float wall_s);
                ("checksum", Obs.Json.Int m.Cosim.checksum);
                ("sim_cycles", Obs.Json.Int m.Cosim.sim_cycles);
                ("events", Obs.Json.Int m.Cosim.events);
                ("activations", Obs.Json.Int m.Cosim.activations);
                ("bus_ops", Obs.Json.Int m.Cosim.bus_ops);
              ]))
    else
      Printf.printf
        "%s (%s): checksum %d, %d simulated cycles, %d kernel events, %d bus \
         ops\n"
        shown outcome_str m.Cosim.checksum m.Cosim.sim_cycles m.Cosim.events
        m.Cosim.bus_ops
  in
  Cmd.v
    (Cmd.info "cosim"
       ~doc:
         "Co-simulate the echo system at a given level, or a mixed \
          per-component level assignment.")
    Term.(
      started
        (const run $ levels $ items $ quantum $ partitions $ link_latency
       $ json_arg))

(* ------------------------------------------------------------------ *)
(* fuzz                                                                *)
(* ------------------------------------------------------------------ *)

let fuzz_cmd =
  let count =
    Arg.(
      value
      & opt (int_at_least 0) 200
      & info [ "count" ] ~docv:"N" ~doc:"Number of fuzz cases to run.")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:"Base seed; case $(i,k) runs from seed $(docv)+$(i,k).")
  in
  let fault =
    Arg.(
      value & flag
      & info [ "fault" ]
          ~doc:
            "Also fuzz the fault-injection layer (campaign determinism and \
             faulty-transport delivery oracles).")
  in
  let run seed count fault jobs max_retries deadline_ms json =
    let r =
      Codesign_fuzz.Fuzz.run ~seed ~count ~fault ~jobs ?max_retries
        ?deadline_ms ()
    in
    let module R = Obs.Fuzz_report in
    if json then
      print_endline (Obs.Json.to_string ~pretty:true (R.to_json r))
    else begin
      Printf.printf
        "fuzz: %d cases from seed %d (%d behavior, %d ladder, %d taskgraph, \
         %d fault; %d FSMD blocks) in %.2fs\n"
        r.R.count r.R.seed r.R.behavior_cases r.R.ladder_cases
        r.R.taskgraph_cases r.R.fault_cases r.R.rtl_blocks r.R.wall_s;
      List.iter
        (fun (f : R.failure) ->
          Printf.printf "FAIL [%s] case seed %d: %s\n" f.R.f_category
            f.R.f_seed f.R.f_detail;
          Option.iter
            (fun p -> Printf.printf "  shrunk counterexample:\n%s\n" p)
            f.R.f_program)
        r.R.failures;
      List.iter
        (fun ((case_seed, d) : int * Obs.Degraded.t) ->
          Printf.printf "DEGRADED case seed %d: %s (after %d attempts)\n"
            case_seed d.Obs.Degraded.error d.Obs.Degraded.attempts)
        r.R.degraded;
      if r.R.failures = [] && r.R.degraded = [] then
        print_endline "all levels agree"
    end;
    if r.R.failures = [] then Ok ()
    else
      Error
        (`Msg
           (Printf.sprintf "%d of %d fuzz cases found disagreements"
              (List.length r.R.failures) r.R.count))
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differentially fuzz the abstraction levels against each other.")
    Term.(
      term_result
        (started
           (const run $ seed $ count $ fault $ jobs_arg $ max_retries_arg
          $ deadline_arg $ json_arg)))

(* ------------------------------------------------------------------ *)
(* fault                                                               *)
(* ------------------------------------------------------------------ *)

let fault_cmd =
  let module Campaign = Codesign_fault.Campaign in
  let module FR = Obs.Fault_report in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Campaign seed.  The same seed always produces byte-identical \
             JSON.")
  in
  let ops =
    Arg.(
      value
      & opt (some (int_at_least 1)) None
      & info [ "ops" ] ~docv:"N"
          ~doc:"Transfer operations per sweep cell (default 240; 96 quick).")
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"Smaller campaign for CI-speed runs.")
  in
  let engine =
    let engine_conv =
      Arg.enum [ ("fork", Campaign.Fork); ("rerun", Campaign.Rerun) ]
    in
    Arg.(
      value & opt engine_conv Campaign.Fork
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:
            "Sweep engine: $(b,fork) (default) checkpoints each \
             mechanism's world after its fault-free warm-up and forks \
             every rate cell off the checkpoint; $(b,rerun) rebuilds the \
             world from scratch per cell.  Both produce byte-identical \
             reports — rerun is the reference fork is checked against.")
  in
  let warmup =
    Arg.(
      value
      & opt (some (int_at_least 0)) None
      & info [ "warmup" ] ~docv:"N"
          ~doc:
            "Fault-free warm-up transfers before each cell's injection \
             window (default ops/2).")
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Also write the JSON report to $(docv) and validate that it \
             round-trips through the reader.")
  in
  let chaos =
    let chaos_conv =
      Arg.enum
        [ ("trap", Campaign.Chaos_trap); ("hang", Campaign.Chaos_hang) ]
    in
    Arg.(
      value & opt (some chaos_conv) None
      & info [ "chaos" ] ~docv:"KIND"
          ~doc:
            "Append a deliberately sabotaged sweep task ($(b,trap) raises \
             mid-window, $(b,hang) spins until its fuel runs out); its \
             cells come back degraded while every other cell is \
             byte-identical to a run without $(b,--chaos).")
  in
  let cell_fuel =
    Arg.(
      value
      & opt (some (int_at_least 1)) None
      & info [ "cell-fuel" ] ~docv:"UNITS"
          ~doc:
            "Simulated-time budget per sweep-cell attempt (default 200M \
             units, the historic run bound).")
  in
  let run seed ops quick engine warmup jobs max_retries deadline_ms chaos
      cell_fuel json out =
    let ops =
      match ops with
      | Some n -> n
      | None -> if quick then Campaign.quick_ops else Campaign.default_ops
    in
    let r =
      Campaign.run ~seed ~ops ?warmup ~engine ~jobs ?max_retries ?cell_fuel
        ?deadline_ms ?chaos ()
    in
    (* Write and re-read the report before printing anything, so a bad
       --out path fails with one line on stderr and nothing on stdout. *)
    let checked =
      match out with
      | None -> Ok ()
      | Some file ->
          let ( let* ) = Result.bind in
          let fail fmt = Printf.ksprintf (fun m -> Error (`Msg m)) fmt in
          let* () =
            try Ok (FR.write ~path:file r)
            with Sys_error e -> fail "cannot write the fault report: %s" e
          in
          let* back =
            match FR.read ~path:file with
            | Ok back -> Ok back
            | Error e -> fail "fault report in %s failed to parse: %s" file e
          in
          (* compare serialized forms: floats are printed at %.12g, so
             the parsed tree can differ in bits the printer drops while
             the canonical text stays identical *)
          if
            Obs.Json.to_string (FR.to_json back)
            <> Obs.Json.to_string (FR.to_json r)
          then fail "fault report did not round-trip through %s" file
          else Ok ()
    in
    if Result.is_ok checked then
      if json then
        print_endline (Obs.Json.to_string ~pretty:true (FR.to_json r))
      else print_string (Codesign_experiments.Exp_fault.render r);
    checked
  in
  Cmd.v
    (Cmd.info "fault"
       ~doc:
         "Run the deterministic fault-injection campaign across the \
          interface ladder.")
    Term.(
      term_result
        (started
           (const run $ seed $ ops $ quick $ engine $ warmup $ jobs_arg
          $ max_retries_arg $ deadline_arg $ chaos $ cell_fuel $ json_arg
          $ out)))

(* ------------------------------------------------------------------ *)
(* kernels / disasm                                                    *)
(* ------------------------------------------------------------------ *)

let kernels_cmd =
  let run () =
    List.iter
      (fun (name, proc, _) ->
        let est = Codesign_hls.Hls.estimate proc in
        Printf.printf "%-18s %3d stmts, hw est: %5d cycles / %5d area\n" name
          (Codesign_ir.Behavior.static_stmts proc)
          est.Codesign_hls.Hls.cycles est.Codesign_hls.Hls.area)
      Kernels.all
  in
  Cmd.v
    (Cmd.info "kernels" ~doc:"List the benchmark kernels.")
    Term.(started (const run $ const ()))

let disasm_cmd =
  let run (name, proc, _) =
    let items, lay = Codesign_isa.Codegen.compile proc in
    let img = Codesign_isa.Asm.assemble items in
    Printf.printf "; %s — %d instructions, %d encoded bytes, data segment \
                   %d words at %d\n%s"
      name
      (Array.length img.Codesign_isa.Asm.code)
      (Codesign_isa.Encoding.program_bytes img.Codesign_isa.Asm.code)
      lay.Codesign_isa.Codegen.data_words lay.Codesign_isa.Codegen.base
      (Codesign_isa.Asm.print items)
  in
  Cmd.v
    (Cmd.info "disasm" ~doc:"Show a kernel's compiled assembly.")
    Term.(started (const run $ kernel_arg))

(* ------------------------------------------------------------------ *)

let () =
  let info =
    Cmd.info "codesign" ~version:"1.0.0"
      ~doc:
        "Mixed hardware/software system design — reproduction of Adams & \
         Thomas, DAC 1996."
  in
  (* Unknown subcommands / flags are parse errors: cmdliner has already
     printed the message and usage on stderr, we exit the conventional
     2.  Term-level failures (e.g. fuzz disagreements) exit 1. *)
  let code =
    match
      Cmd.eval_value
        (Cmd.group info
           [
             experiments_cmd; partition_cmd; cosynth_cmd; asip_cmd; cosim_cmd;
             fuzz_cmd; fault_cmd; kernels_cmd; disasm_cmd;
           ])
    with
    | Ok (`Ok ()) | Ok `Help | Ok `Version -> 0
    | Error `Parse -> 2
    | Error `Term -> if !command_ran then 1 else 2
    | Error `Exn -> Cmd.Exit.internal_error
  in
  exit code
