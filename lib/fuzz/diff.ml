module B = Codesign_ir.Behavior
module Rng = Codesign_ir.Rng
module Pn = Codesign_ir.Process_network
module C = Codesign_ir.Cdfg
module Tg = Codesign_ir.Task_graph
module Codegen = Codesign_isa.Codegen
module Asm = Codesign_isa.Asm
module Cpu = Codesign_isa.Cpu
module Hls = Codesign_hls.Hls
module Controller = Codesign_hls.Controller
module F = Codesign_rtl.Fsmd
module Cosim = Codesign.Cosim
module Partition = Codesign.Partition
module Cost = Codesign.Cost
module Tgff = Codesign_workloads.Tgff
module Checksum = Codesign_obs.Checksum

type outcome = { rtl_blocks : int; error : string option }

(* The shrinker can delete the statements that mention a result
   variable; keep [results] consistent with what the program still
   names, like {!B.vars_of} (and [Codegen.result]) require. *)
let normalize (p : B.proc) =
  let vars = B.vars_of p in
  { p with B.results = List.filter (fun v -> List.mem v vars) p.B.results }

let trace_checksum trace results =
  Checksum.of_string
    (String.concat ";"
       (List.map (fun (p, v) -> Printf.sprintf "%d:%d" p v) trace
       @ List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) results))

(* ------------------------------------------------------------------ *)
(* pretty disagreement details                                         *)
(* ------------------------------------------------------------------ *)

let show_list show l =
  let n = List.length l in
  let shown = List.filteri (fun i _ -> i < 16) l in
  "["
  ^ String.concat "; " (List.map show shown)
  ^ (if n > 16 then Printf.sprintf "; ...%d more" (n - 16) else "")
  ^ "]"

let show_trace = show_list (fun (p, v) -> Printf.sprintf "%d:%d" p v)
let show_results = show_list (fun (n, v) -> Printf.sprintf "%s=%d" n v)

let compare_level ~level ~ref_trace ~ref_results trace results =
  if trace <> ref_trace then
    Some
      (Printf.sprintf "%s port trace differs: interp %s vs %s %s" level
         (show_trace ref_trace) level (show_trace trace))
  else if results <> ref_results then
    Some
      (Printf.sprintf "%s results differ: interp %s vs %s %s" level
         (show_results ref_results) level (show_results results))
  else None

(* ------------------------------------------------------------------ *)
(* individual levels                                                   *)
(* ------------------------------------------------------------------ *)

let is_fuel_message m =
  let needle = "fuel exhausted" in
  let nl = String.length needle and ml = String.length m in
  let rec at i = i + nl <= ml && (String.sub m i nl = needle || at (i + 1)) in
  at 0

let run_interp ~fuel p =
  let io, out = B.collecting_io () in
  match B.run ~io ~fuel p [] with
  | results -> Ok (List.rev !out, results)
  | exception Invalid_argument m when is_fuel_message m -> Error `Fuel
  | exception e ->
      Error (`Raised (Printf.sprintf "interpreter raised %s" (Printexc.to_string e)))

(* Both execution tiers of the ISS run every case: the reference step
   loop ([Cpu.run]) is the oracle leg compared against the interpreter,
   and the block-compiled tier ([Cpu.run_compiled]) must agree with the
   step tier on the complete observable state — status (including trap
   messages), cycles, instret, final pc, registers, data memory and the
   port trace — whatever the outcome. *)
let tiers_disagree (step_cpu : Cpu.t) (blk_cpu : Cpu.t) step_trace blk_trace =
  let show_status = function
    | Cpu.Running -> "running"
    | Cpu.Halted -> "halted"
    | Cpu.Trapped m -> "trapped: " ^ m
  in
  let field name show a b =
    if a = b then None
    else
      Some
        (Printf.sprintf "iss-block %s differs: step %s vs block %s" name
           (show a) (show b))
  in
  let ( <|> ) a b = match a with Some _ -> a | None -> b () in
  field "status" show_status (Cpu.status step_cpu) (Cpu.status blk_cpu)
  <|> (fun () ->
  field "port trace" show_trace step_trace blk_trace)
  <|> (fun () ->
  field "cycles" string_of_int (Cpu.cycles step_cpu) (Cpu.cycles blk_cpu))
  <|> (fun () ->
  field "instret" string_of_int (Cpu.instret step_cpu) (Cpu.instret blk_cpu))
  <|> (fun () -> field "pc" string_of_int (Cpu.pc step_cpu) (Cpu.pc blk_cpu))
  <|> (fun () ->
  let regs c = List.init 32 (Cpu.reg c) in
  field "regs" (show_list string_of_int) (regs step_cpu) (regs blk_cpu))
  <|> fun () ->
  Option.map
    (fun (a, va, vb) ->
      Printf.sprintf "iss-block mem[%d] differs: step %d vs block %d" a va vb)
    (Cpu.first_mem_difference step_cpu blk_cpu)

let run_iss ~transform_asm ~fuel p =
  match
    let items, lay = Codegen.compile p in
    let items = transform_asm items in
    (Asm.assemble items, lay)
  with
  | exception Invalid_argument m -> Error ("iss compile/assemble: " ^ m)
  | img, lay -> (
      let run_tier runner =
        let out = ref [] in
        let env =
          {
            Cpu.default_env with
            Cpu.port_out = (fun pt v -> out := (pt, v) :: !out);
          }
        in
        let cpu = Cpu.create ~env img.Asm.code in
        (* a generous statement->instruction expansion bound: agreement
           with an interpreter run of [fuel] statements never needs
           more *)
        ignore (runner ~fuel:(40 * fuel) cpu);
        (cpu, List.rev !out)
      in
      let step_cpu, trace = run_tier (fun ~fuel c -> Cpu.run ~fuel c) in
      let blk_cpu, blk_trace =
        run_tier (fun ~fuel c -> Cpu.run_compiled ~fuel c)
      in
      match tiers_disagree step_cpu blk_cpu trace blk_trace with
      | Some m -> Error m
      | None -> (
          match Cpu.status step_cpu with
          | Cpu.Halted ->
              Ok
                ( trace,
                  List.map
                    (fun v -> (v, Codegen.result lay step_cpu v))
                    p.B.results )
          | Cpu.Trapped m -> Error ("iss trapped: " ^ m)
          | Cpu.Running -> assert false))

let run_net ~mapping p =
  match
    let net = Pn.make ~name:p.B.name [ (p, mapping) ] [] in
    Cosim.run_network net
  with
  | exception e ->
      Error (Printf.sprintf "run_network raised %s" (Printexc.to_string e))
  | r when r.Cosim.net_outcome <> Cosim.Net_completed ->
      let p, m =
        match r.Cosim.net_outcome with
        | Cosim.Net_trapped (p, m) -> (p, m)
        | Cosim.Net_completed -> assert false
      in
      Error (Printf.sprintf "net: %s trapped: %s" p m)
  | r ->
      let trace =
        List.filter_map
          (fun (pr, pt, v) -> if pr = p.B.name then Some (pt, v) else None)
          r.Cosim.port_writes
      in
      let results =
        Option.value ~default:[] (List.assoc_opt p.B.name r.Cosim.sw_results)
      in
      Ok (trace, results)

(* One memory-free CDFG block through schedule/bind/controller to an
   executable FSMD, compared against the reference DFG evaluation. *)
let run_rtl_block pname (b : C.block) sched sched_name =
  let envf name =
    Int64.to_int
      (Checksum.fnv1a64 (pname ^ "/" ^ b.C.label ^ "/" ^ name))
    land 15
  in
  match Controller.eval_block_reference b ~env:envf with
  | exception Invalid_argument m ->
      Some (Printf.sprintf "block %s: reference eval: %s" b.C.label m)
  | expected -> (
      match Hls.synthesize_block ~name:b.C.label ~scheduler:sched b with
      | exception Invalid_argument m ->
          Some
            (Printf.sprintf "block %s (%s): synthesis: %s" b.C.label
               sched_name m)
      | fsmd, report -> (
          let outs : (string, int) Hashtbl.t = Hashtbl.create 8 in
          let env =
            {
              F.null_env with
              F.input = envf;
              output = (fun nm v -> Hashtbl.replace outs nm v);
            }
          in
          let init =
            List.filter_map
              (fun (o : C.op) ->
                match o.C.opcode with
                | C.Read nm when not (String.contains nm ':') ->
                    Some (nm, envf nm)
                | _ -> None)
              b.C.ops
          in
          match F.run ~env ~regs:init fsmd with
          | exception Invalid_argument m ->
              Some
                (Printf.sprintf "block %s (%s): fsmd run: %s" b.C.label
                   sched_name m)
          | r ->
              if r.F.cycles <> report.Hls.latency then
                Some
                  (Printf.sprintf
                     "block %s (%s): fsmd ran %d cycles but the HLS report \
                      claims %d"
                     b.C.label sched_name r.F.cycles report.Hls.latency)
              else
                List.fold_left
                  (fun acc (nm, v) ->
                    match acc with
                    | Some _ -> acc
                    | None ->
                        let actual =
                          if String.contains nm ':' then
                            Hashtbl.find_opt outs nm
                          else List.assoc_opt nm r.F.final_regs
                        in
                        if actual <> Some v then
                          Some
                            (Printf.sprintf
                               "block %s (%s): %s = %s, reference says %d"
                               b.C.label sched_name nm
                               (match actual with
                               | Some a -> string_of_int a
                               | None -> "<missing>")
                               v)
                        else None)
                  None expected))

let check_rtl p =
  match B.elaborate p with
  | exception Invalid_argument m -> (0, Some ("elaborate: " ^ m))
  | cdfg ->
      let memory_free (b : C.block) =
        b.C.ops <> []
        && List.for_all
             (fun (o : C.op) ->
               match o.C.opcode with
               | C.Load _ | C.Store _ -> false
               | _ -> true)
             b.C.ops
      in
      (* [eval_block_reference] models io names as registers (writes
         forward to later reads, last write wins) while the FSMD reads
         ports externally and leaves same-port writes unordered in the
         schedule — so any io access after a write to the same name is
         outside the per-block contract.  Port-write ordering is still
         verified end-to-end by the interpreter/ISS/network levels. *)
      let io_hazard_free (b : C.block) =
        let written : (string, unit) Hashtbl.t = Hashtbl.create 4 in
        List.for_all
          (fun (o : C.op) ->
            match o.C.opcode with
            | C.Read nm when String.contains nm ':' ->
                not (Hashtbl.mem written nm)
            | C.Write nm when String.contains nm ':' ->
                if Hashtbl.mem written nm then false
                else begin
                  Hashtbl.add written nm ();
                  true
                end
            | _ -> true)
          b.C.ops
      in
      let blocks =
        List.filter
          (fun b -> memory_free b && io_hazard_free b)
          cdfg.C.blocks
      in
      let checked = ref 0 and err = ref None in
      List.iter
        (fun b ->
          List.iter
            (fun (sched, sched_name) ->
              if !err = None then begin
                incr checked;
                err := run_rtl_block p.B.name b sched sched_name
              end)
            [
              (Hls.List_sched Hls.default_resources, "list");
              (Hls.Asap_sched, "asap");
            ])
        blocks;
      (!checked, !err)

(* ------------------------------------------------------------------ *)
(* the cross-level behaviour check                                     *)
(* ------------------------------------------------------------------ *)

(* Interpreter statements a behaviour may run before it counts as
   non-terminating. *)
let fuel = 300_000

let check_behavior ?(transform_asm = fun items -> items) p =
  let p = normalize p in
  match run_interp ~fuel p with
  | Error `Fuel -> { rtl_blocks = 0; error = None } (* vacuous: no oracle *)
  | Error (`Raised m) -> { rtl_blocks = 0; error = Some m }
  | Ok (ref_trace, ref_results) -> (
      let cmp level = function
        | Error m -> Some m
        | Ok (trace, results) ->
            compare_level ~level ~ref_trace ~ref_results trace results
      in
      match cmp "iss" (run_iss ~transform_asm ~fuel p) with
      | Some e -> { rtl_blocks = 0; error = Some e }
      | None -> (
          (* only reached when the compiled code agrees and halts, so
             the fuel-less co-simulated CPU below cannot run away *)
          match cmp "net-sw" (run_net ~mapping:Pn.Sw p) with
          | Some e -> { rtl_blocks = 0; error = Some e }
          | None -> (
              let hw_err =
                match run_net ~mapping:Pn.Hw p with
                | Error m -> Some m
                | Ok (trace, _) ->
                    (* hardware processes expose no result variables;
                       the epilogue port stream carries the outcome *)
                    if trace <> ref_trace then
                      Some
                        (Printf.sprintf
                           "net-hw port trace differs: interp %s vs net-hw %s"
                           (show_trace ref_trace) (show_trace trace))
                    else None
              in
              match hw_err with
              | Some e -> { rtl_blocks = 0; error = Some e }
              | None ->
                  let rtl_blocks, error = check_rtl p in
                  { rtl_blocks; error })))

(* ------------------------------------------------------------------ *)
(* the abstraction ladder                                              *)
(* ------------------------------------------------------------------ *)

let check_ladder rng =
  let items, work, src_period, sink_period = Gen.echo_params rng in
  let where =
    Printf.sprintf "(items=%d work=%d src=%d sink=%d)" items work src_period
      sink_period
  in
  match
    List.map
      (fun level ->
        Cosim.run_echo_assignment ~levels:(Cosim.pure level) ~items ~work
          ~src_period ~sink_period ())
      [ Cosim.Pin; Cosim.Transaction; Cosim.Driver; Cosim.Message ]
  with
  | exception e ->
      Some (Printf.sprintf "echo system raised %s %s" (Printexc.to_string e) where)
  | [ pin; tlm; drv; msg ] ->
      let levels = [ pin; tlm; drv; msg ] in
      let bad_outcome =
        List.find_opt (fun m -> m.Cosim.outcome <> Cosim.Completed) levels
      in
      let bad_checksum =
        List.find_opt (fun m -> m.Cosim.checksum <> pin.Cosim.checksum) levels
      in
      let chain name get l =
        let rec go = function
          | a :: (b :: _ as rest) ->
              if get a < get b then
                Some
                  (Printf.sprintf "%s not non-increasing up the ladder: %s %d < %s %d %s"
                     name
                     (Cosim.level_name a.Cosim.level)
                     (get a)
                     (Cosim.level_name b.Cosim.level)
                     (get b) where)
              else go rest
          | _ -> None
        in
        go l
      in
      let ( <|> ) a b = match a with Some _ -> a | None -> b () in
      (match bad_outcome with
      | Some m ->
          let reason =
            match m.Cosim.outcome with
            | Cosim.Not_halted r | Cosim.Exhausted r -> r
            | Cosim.Completed -> assert false
          in
          Some
            (Printf.sprintf "did not complete at %s: %s %s"
               (Cosim.level_name m.Cosim.level) reason where)
      | None -> None)
      <|> (fun () ->
      match bad_checksum with
      | Some m ->
          Some
            (Printf.sprintf "checksum differs at %s: %d vs pin %d %s"
               (Cosim.level_name m.Cosim.level)
               m.Cosim.checksum pin.Cosim.checksum where)
      | None -> None)
      <|> (fun () -> chain "events" (fun m -> m.Cosim.events) levels)
      <|> (fun () -> chain "activations" (fun m -> m.Cosim.activations) levels)
      <|> fun () ->
      (* abstracted timing is an estimate that can land on either side
         of the pin-accurate count, so simulated time is held to the
         same relative-error bounds the flow tests use rather than to
         strict monotonicity *)
      let timing_err m =
        abs_float
          (float_of_int (m.Cosim.sim_cycles - pin.Cosim.sim_cycles)
          /. float_of_int (max 1 pin.Cosim.sim_cycles))
      in
      let bound m limit =
        if timing_err m >= limit then
          Some
            (Printf.sprintf
               "%s sim time err %.3f >= %.1f vs pin (%d vs %d) %s"
               (Cosim.level_name m.Cosim.level)
               (timing_err m) limit m.Cosim.sim_cycles pin.Cosim.sim_cycles
               where)
        else None
      in
      (match bound tlm 0.5 with Some e -> Some e | None -> bound drv 1.0)
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* mixed-level assignments                                             *)
(* ------------------------------------------------------------------ *)

let all_levels = [ Cosim.Pin; Cosim.Transaction; Cosim.Driver; Cosim.Message ]

let bump = function
  | Cosim.Pin -> Cosim.Transaction
  | Cosim.Transaction -> Cosim.Driver
  | Cosim.Driver -> Cosim.Message
  | Cosim.Message -> Cosim.Message

(* Raising a component must never make simulation dearer — except the
   sink interface's step onto Message, which swaps a passive bus-mapped
   device for an active endpoint process and may add its (small)
   scheduling cost; that edge is excluded from the oracle's
   monotonicity claim and covered by the property tests' bound
   instead. *)
let check_mixed rng =
  let items, work, src_period, sink_period = Gen.echo_params rng in
  let pick () = List.nth all_levels (Rng.int rng 4) in
  let a = { Cosim.src = pick (); cpu = pick (); sink = pick () } in
  let raises =
    (if a.Cosim.src <> Cosim.Message then
       [ { a with Cosim.src = bump a.Cosim.src } ]
     else [])
    @ (if a.Cosim.cpu <> Cosim.Message then
         [ { a with Cosim.cpu = bump a.Cosim.cpu } ]
       else [])
    @
    match a.Cosim.sink with
    | Cosim.Pin | Cosim.Transaction ->
        [ { a with Cosim.sink = bump a.Cosim.sink } ]
    | Cosim.Driver | Cosim.Message -> []
  in
  let partner =
    match raises with
    | [] -> None
    | l -> Some (List.nth l (Rng.int rng (List.length l)))
  in
  let where =
    Printf.sprintf "(items=%d work=%d src=%d sink=%d)" items work src_period
      sink_period
  in
  let run levels =
    Cosim.run_echo_assignment ~levels ~items ~work ~src_period ~sink_period
      ()
  in
  match
    let pin = run (Cosim.pure Cosim.Pin) in
    let m = run a in
    let m' = Option.map run partner in
    (pin, m, m')
  with
  | exception e ->
      Some
        (Printf.sprintf "mixed echo system raised %s %s"
           (Printexc.to_string e) where)
  | pin, m, m' ->
      let ( <|> ) a b = match a with Some _ -> a | None -> b () in
      let basic (m : Cosim.metrics) =
        let name = Cosim.assignment_name m.Cosim.assignment in
        (match m.Cosim.outcome with
        | Cosim.Completed -> None
        | Cosim.Not_halted r | Cosim.Exhausted r ->
            Some
              (Printf.sprintf "mixed %s did not complete: %s %s" name r
                 where))
        <|> (fun () ->
        if m.Cosim.checksum <> pin.Cosim.checksum then
          Some
            (Printf.sprintf "mixed %s checksum %d <> pin %d %s" name
               m.Cosim.checksum pin.Cosim.checksum where)
        else None)
        <|> fun () ->
        let msg_only =
          m.Cosim.assignment.Cosim.src = Cosim.Message
          && m.Cosim.assignment.Cosim.sink = Cosim.Message
        in
        if (m.Cosim.bus_ops = 0) <> msg_only then
          Some
            (Printf.sprintf
               "mixed %s bus_ops %d inconsistent with its interfaces %s"
               name m.Cosim.bus_ops where)
        else None
      in
      basic m
      <|> (fun () -> Option.bind m' basic)
      <|> (fun () ->
      (* temporal decoupling must be functionally invisible: the same
         assignment run with a 64-cycle quantum completes with the same
         checksum (timing metrics may legitimately differ) *)
      match
        Cosim.run_echo_assignment ~levels:a ~items ~work ~src_period
          ~sink_period ~quantum:64 ()
      with
      | exception e ->
          Some
            (Printf.sprintf "quantum=64 echo system raised %s %s"
               (Printexc.to_string e) where)
      | mq ->
          if mq.Cosim.outcome <> Cosim.Completed then
            Some
              (Printf.sprintf "quantum=64 %s did not complete %s"
                 (Cosim.assignment_name a) where)
          else if mq.Cosim.checksum <> m.Cosim.checksum then
            Some
              (Printf.sprintf "quantum=64 %s checksum %d <> quantum=1 %d %s"
                 (Cosim.assignment_name a) mq.Cosim.checksum m.Cosim.checksum
                 where)
          else None)
      <|> fun () ->
      Option.bind m' (fun m' ->
          let worse what get =
            if get m' > get m then
              Some
                (Printf.sprintf
                   "%s grew raising a component: %s %d -> %s %d %s" what
                   (Cosim.assignment_name m.Cosim.assignment)
                   (get m)
                   (Cosim.assignment_name m'.Cosim.assignment)
                   (get m') where)
            else None
          in
          match worse "events" (fun m -> m.Cosim.events) with
          | Some e -> Some e
          | None -> worse "activations" (fun m -> m.Cosim.activations))

(* ------------------------------------------------------------------ *)
(* task-graph / partitioner cross-checks                               *)
(* ------------------------------------------------------------------ *)

let check_taskgraph rng =
  let spec = Gen.tgff_spec rng in
  let g = Tgff.generate spec in
  let max_area =
    if Rng.bool rng then None
    else
      let all_hw = Cost.evaluate g (Cost.all_hw g) in
      Some (1 + Rng.int rng (max 1 all_hw.Cost.hw_area))
  in
  let sa_seed = Rng.int rng 100_000 in
  let run_alg name =
    match name with
    | "greedy" -> Partition.greedy ?max_area g
    | "kl" -> Partition.kl ?max_area g
    | "gclp" -> Partition.gclp ?max_area g
    | "sa" -> Partition.simulated_annealing ?max_area ~seed:sa_seed g
    | _ -> assert false
  in
  let where name =
    Printf.sprintf "(%s, tgff seed=%d n=%d%s)" name spec.Tgff.seed
      spec.Tgff.n_tasks
      (match max_area with
      | Some a -> Printf.sprintf " budget=%d" a
      | None -> "")
  in
  let optimum =
    if Tg.n_tasks g <= 10 then Some (Partition.exhaustive ?max_area g)
    else None
  in
  let all_sw_latency = (Cost.evaluate g (Cost.all_sw g)).Cost.latency in
  let check_one name =
    match run_alg name with
    | exception e ->
        Some
          (Printf.sprintf "partitioner raised %s %s" (Printexc.to_string e)
             (where name))
    | r ->
        if not (Partition.respects_budget ~max_area g r.Partition.partition)
        then Some ("area budget violated " ^ where name)
        else if Cost.evaluate g r.Partition.partition <> r.Partition.eval then
          Some ("reported eval differs from recomputation " ^ where name)
        else if r.Partition.eval.Cost.latency <= 0 then
          Some ("non-positive latency " ^ where name)
        else if r.Partition.eval.Cost.all_sw_latency <> all_sw_latency then
          Some ("all-SW latency inconsistent " ^ where name)
        else if
          (run_alg name).Partition.objective <> r.Partition.objective
        then Some ("non-deterministic result " ^ where name)
        else
          match optimum with
          | Some ex
            when ex.Partition.objective > r.Partition.objective +. 1e-9 ->
              Some
                (Printf.sprintf
                   "heuristic beat the exhaustive optimum: %g < %g %s"
                   r.Partition.objective ex.Partition.objective (where name))
          | _ -> None
  in
  List.fold_left
    (fun acc name -> match acc with Some _ -> acc | None -> check_one name)
    None
    [ "greedy"; "kl"; "gclp"; "sa" ]
