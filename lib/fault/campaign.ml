module K = Codesign_sim.Kernel
module M = Codesign_bus.Memory_map
module Bus = Codesign_bus.Bus
module T = Codesign_bus.Transport
module Interrupt = Codesign_bus.Interrupt
module N = Codesign_rtl.Netlist
module L = Codesign_rtl.Logic_sim
module Cpu = Codesign_isa.Cpu
module Isa = Codesign_isa.Isa
module FR = Codesign_obs.Fault_report
module Degraded = Codesign_obs.Degraded
module Policy = Codesign_resil.Policy
module Budget = Codesign_resil.Budget
module Supervisor = Codesign_resil.Supervisor

type mechanism = Pin | Tlm | Token | Degrade

let mechanism_name = function
  | Pin -> "pin"
  | Tlm -> "tlm"
  | Token -> "token"
  | Degrade -> "degrade"

let mechanisms = [ Pin; Tlm; Token; Degrade ]
let default_rates = [ 0.02; 0.05; 0.1 ]
let default_ops = 240
let quick_ops = 96

type engine = Rerun | Fork

let default_warmup ops = ops / 2
let ( let* ) = Result.bind

(* Chaos harness faults: a sweep task whose master is sabotaged at its
   first windowed op, exercising the supervision path end to end. *)
type chaos = Chaos_trap | Chaos_hang

let chaos_name = function Chaos_trap -> "trap" | Chaos_hang -> "hang"
let chaos_label c = "chaos-" ^ chaos_name c

(* The fuel of a cell attempt's injection window: the historic hard
   K.run bound. *)
let default_cell_fuel = 200_000_000

(* ------------------------------------------------------------------ *)
(* the transfer sweep                                                  *)
(* ------------------------------------------------------------------ *)

let pattern i = ((i * 37) + 11) land 1023 lor 1

(* tlm retry policy *)
let retry_budget = 3
let backoff = 8

(* degrade escalation thresholds *)
let bite_threshold = 2
let give_up_threshold = 2

type level = L_pin | L_tlm | L_token

let level_name = function L_pin -> "pin" | L_tlm -> "tlm" | L_token -> "token"

(* The world one (mechanism, workload) pair runs in.  Both engines
   build and warm it identically; the fork engine additionally
   checkpoints it at the warm-up boundary and rewinds it once per
   attempt.  The source ROM holds the [total]-word image from address 0
   and the sink RAM starts right after it, at [total], so the two never
   overlap at any size.  The injector is created inactive at rate 0 and
   {!Injector.reinit}'d before every window on both engines, so the two
   fault streams are literally the same stream. *)
type world = {
  k : K.t;
  inj : Injector.t;
  map : M.t;
  mechanism : mechanism;
  fb_pin : Faulty_bus.t option;
  fb_tlm : Faulty_bus.t option;
  rel : Faulty_chan.t option;
  wd : Watchdog.t;
  warmup : int;
  total : int;  (* warmup + windowed ops *)
  chaos : chaos option;  (* sabotage the master at its first windowed op *)
}

let make_world ?chaos ~warmup ~ops mechanism : world =
  let total = warmup + ops in
  let k = K.create () in
  let inj = Injector.create ~rate:0.0 ~active:false ~seed:0 () in
  let data = Array.init total pattern in
  let map =
    M.create
      [
        M.rom ~name:"src" ~base:0 data;
        M.ram ~name:"sink" ~base:total ~size:total;
      ]
  in
  let uses_pin = mechanism = Pin || mechanism = Degrade in
  let uses_tlm = mechanism = Tlm || mechanism = Degrade in
  let uses_token = mechanism = Token || mechanism = Degrade in
  let fb_pin =
    if uses_pin then Some (Faulty_bus.create k inj (T.pin k map)) else None
  in
  let fb_tlm =
    if uses_tlm then Some (Faulty_bus.create k inj (T.tlm k map)) else None
  in
  let rel = if uses_token then Some (Faulty_chan.create k inj) else None in
  let wd = Watchdog.create k ~timeout:800 ~on_bite:(fun _ -> ()) in
  { k; inj; map; mechanism; fb_pin; fb_tlm; rel; wd; warmup; total; chaos }

(* Per-attempt accounting, fresh for every window (and the warm-up). *)
type cell_state = {
  mutable retries : int;
  mutable give_ups : int;
  faulted : bool array;  (* over the full [total] index range *)
  mutable done_at : int;
  mutable level : level;
}

let fresh_state (w : world) : cell_state =
  {
    retries = 0;
    give_ups = 0;
    faulted = Array.make w.total false;
    done_at = 0;
    level =
      (match w.mechanism with
      | Pin | Degrade -> L_pin
      | Tlm -> L_tlm
      | Token -> L_token);
  }

(* The sink address of transfer [i]. *)
let sink (w : world) i = w.total + i

let pin_op w fb i =
  let v = Faulty_bus.raw_read fb i in
  Faulty_bus.raw_write fb (sink w i) v

(* The tlm recovery mechanism as a named policy: [retry_budget] retries
   with the historic linear [backoff * (attempt + 1)] ramp — the exact
   schedule (8, 16, 24) the old hand-rolled loops spent. *)
let tlm_policy =
  Policy.create ~max_retries:retry_budget ~backoff:(Policy.Linear backoff)

let tlm_op w st fb i =
  let on_retry ~attempt:_ ~delay:_ = st.retries <- st.retries + 1 in
  match Faulty_bus.read_retry fb ~policy:tlm_policy ~on_retry i with
  | Error _ -> st.give_ups <- st.give_ups + 1
  | Ok v -> (
      match
        Faulty_bus.write_retry fb ~policy:tlm_policy ~on_retry (sink w i) v
      with
      | Ok () -> ()
      | Error _ -> st.give_ups <- st.give_ups + 1)

let token_op w st rel i =
  (* the OS-message rung reads the source functionally: no bus *)
  let v = M.read w.map i in
  if not (Faulty_chan.send rel ~idx:i v) then st.give_ups <- st.give_ups + 1

let spawn_sink (w : world) =
  match w.rel with
  | None -> ()
  | Some rel ->
      K.spawn ~name:"campaign.sink" w.k (fun () ->
          let rec loop () =
            match Faulty_chan.recv rel with
            | Some (idx, v) ->
                if idx >= 0 && idx < w.total then
                  M.write w.map (sink w idx) v;
                loop ()
            | None -> ()
          in
          loop ())

(* Transfer [i] on the master's current rung. *)
let transfer w st i =
  match st.level with
  | L_pin -> pin_op w (Option.get w.fb_pin) i
  | L_tlm -> tlm_op w st (Option.get w.fb_tlm) i
  | L_token -> token_op w st (Option.get w.rel) i

(* The window master: transfers [warmup, total) with the injection
   window open and the watchdog kicked before each, then the finish. *)
let spawn_window (w : world) (st : cell_state) =
  K.spawn ~name:"campaign.master" w.k (fun () ->
      (match w.chaos with
      | Some Chaos_trap ->
          failwith (Printf.sprintf "chaos: injected trap at op %d" w.warmup)
      | Some Chaos_hang ->
          (* spin in simulated time forever: only a fuel bound or the
             wall deadline ends this attempt *)
          while true do
            K.wait 10_000
          done
      | None -> ());
      Injector.set_active w.inj true;
      for i = w.warmup to w.total - 1 do
        Watchdog.kick w.wd;
        let before = Injector.injected w.inj in
        transfer w st i;
        if Injector.injected w.inj > before then st.faulted.(i) <- true;
        if w.mechanism = Degrade then begin
          if st.level = L_pin && Watchdog.bites w.wd >= bite_threshold then
            st.level <- L_tlm
          else if st.level = L_tlm && st.give_ups >= give_up_threshold then
            st.level <- L_token
        end
      done;
      Watchdog.stop w.wd;
      Option.iter Faulty_chan.close w.rel;
      st.done_at <- K.now w.k)

(* Audit a finished cell: compare the sink image with the expected one
   word by word over the whole range (warm-up transfers are fault-free,
   so they contribute nothing to the fault columns) and assemble the
   report row.  [ops] reports the injection window only. *)
let audit (w : world) (st : cell_state) ~rate : FR.cell =
  let done_at = if st.done_at = 0 then K.now w.k else st.done_at in
  let lost = ref 0 in
  for i = 0 to w.total - 1 do
    if M.read w.map (sink w i) <> pattern i then begin
      incr lost;
      (* an op the per-op accounting missed is still a faulted op *)
      st.faulted.(i) <- true
    end
  done;
  let faulted_ops =
    Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 st.faulted
  in
  Injector.charge_pending w.inj ~time:done_at;
  let injected = Injector.injected w.inj in
  let retries =
    st.retries
    + match w.rel with Some rel -> Faulty_chan.retransmissions rel | None -> 0
  in
  {
    FR.mechanism = mechanism_name w.mechanism;
    rate;
    ops = w.total - w.warmup;
    faulted_ops;
    injected;
    detected = Injector.detected w.inj;
    recovered_ops = faulted_ops - !lost;
    lost_ops = !lost;
    retries;
    watchdog_bites = Watchdog.bites w.wd;
    degraded_to =
      (if w.mechanism = Degrade then Some (level_name st.level) else None);
    sim_cycles = done_at;
    cycle_overhead = 0.0;
    recovery_rate =
      (if faulted_ops = 0 then 1.0
       else float_of_int (faulted_ops - !lost) /. float_of_int faulted_ops);
    mean_detect_latency =
      (if injected = 0 then 0.0
       else
         float_of_int (Injector.latency_sum w.inj) /. float_of_int injected);
    checksum_ok = !lost = 0;
    degraded = None;
  }

(* The report row for a cell the supervisor declared dead: counters are
   zeroed placeholders, the [degraded] record carries what is actually
   known (last error, attempts spent, simulated time at the final
   failure). *)
let degraded_cell ~label ~rate ~ops d : FR.cell =
  {
    FR.mechanism = label;
    rate;
    ops;
    faulted_ops = 0;
    injected = 0;
    detected = 0;
    recovered_ops = 0;
    lost_ops = 0;
    retries = 0;
    watchdog_bites = 0;
    degraded_to = None;
    sim_cycles = 0;
    cycle_overhead = 0.0;
    recovery_rate = 0.0;
    mean_detect_latency = 0.0;
    checksum_ok = false;
    degraded = Some d;
  }

let is_degraded (c : FR.cell) = c.FR.degraded <> None

let with_overhead ~baseline (c : FR.cell) =
  if is_degraded c || is_degraded baseline then c
  else
    let base = float_of_int baseline.FR.sim_cycles in
    let overhead =
      if base <= 0.0 then 0.0
      else (float_of_int c.FR.sim_cycles -. base) /. base
    in
    { c with FR.cycle_overhead = overhead }

(* ------------------------------------------------------------------ *)
(* the cell attempt and the two engines                                *)
(* ------------------------------------------------------------------ *)

(* Everything the fork engine rewinds between attempts.  The injector is
   not part of the checkpoint: every attempt reinitialises it, on both
   engines, which is what makes the two engines draw the same fault
   stream. *)
type world_snap = {
  ws_k : K.snap;
  ws_map : M.snap;
  ws_pin : Faulty_bus.snap option;
  ws_tlm : Faulty_bus.snap option;
  ws_rel : Faulty_chan.snap option;
  ws_wd : Watchdog.snap;
}

let snapshot_world (w : world) : world_snap =
  {
    ws_k = K.snapshot w.k;
    ws_map = M.snapshot w.map;
    ws_pin = Option.map Faulty_bus.snapshot w.fb_pin;
    ws_tlm = Option.map Faulty_bus.snapshot w.fb_tlm;
    ws_rel = Option.map Faulty_chan.snapshot w.rel;
    ws_wd = Watchdog.snapshot w.wd;
  }

let restore_world (w : world) (s : world_snap) =
  (* kernel first: rewinding the clock and emptying the heap before the
     transport restores lets the bus slave they re-spawn land its start
     event at the warm-up boundary, in the restored heap *)
  K.restore w.k s.ws_k;
  (match (w.fb_pin, s.ws_pin) with
  | Some fb, Some snap -> Faulty_bus.restore fb snap
  | _ -> ());
  (match (w.fb_tlm, s.ws_tlm) with
  | Some fb, Some snap -> Faulty_bus.restore fb snap
  | _ -> ());
  (match (w.rel, s.ws_rel) with
  | Some rel, Some snap -> Faulty_chan.restore rel snap
  | _ -> ());
  M.restore w.map s.ws_map;
  Watchdog.restore w.wd s.ws_wd

(* How every attempt of one sweep task gets its warmed world, the one
   thing the engines differ in.  Warming builds a world and runs its
   warm-up master, transfers [0, warmup), to quiescence with [run]: the
   attempt's budgeted run, under the sweep deadline with no fuel, so a
   drained warm-up leaves the clock exactly where an unbounded run
   would, and one the deadline cuts off is an ordinary failed attempt.
   The injector is inactive and the watchdog is never kicked, so the
   warm-up draws no fault and leaves no timer event queued.  Rerun
   warms a fresh world every time.  Fork warms once, inside the first
   attempt that needs it, checkpoints, and rewinds every attempt to the
   checkpoint; the rewind abandons the blocked sink, so it re-spawns
   one (the kernel's fork discipline). *)
let warmed_world ?chaos ~warmup ~ops engine mechanism =
  let warm run =
    let w = make_world ?chaos ~warmup ~ops mechanism in
    let st = fresh_state w in
    spawn_sink w;
    K.spawn ~name:"campaign.master" w.k (fun () ->
        for i = 0 to warmup - 1 do
          transfer w st i
        done);
    Result.map (fun () -> w) (run w)
  in
  match engine with
  | Rerun -> warm
  | Fork ->
      let checkpoint = ref None in
      fun run ->
        let* w, snap =
          match !checkpoint with
          | Some c -> Ok c
          | None -> Result.map (fun w -> (w, snapshot_world w)) (warm run)
        in
        checkpoint := Some (w, snap);
        restore_world w snap;
        spawn_sink w;
        Ok w

(* One attempt at a cell, the one place its fuel window is defined.  On
   a world from [warmed], reseed the injector (both engines draw the
   same fault stream, and a retry redraws it), take fresh accounting,
   spawn the window master and run it under a fresh [cell_fuel] window
   that starts at the warm-up boundary.  The master's finish
   ([done_at]), not an empty queue, completes the cell: the stopped
   watchdog's pending expiry or an ARQ timer may still be queued,
   inert, past the window.  [elapsed] is the simulated time at the end
   of the latest run, the warm-up's included. *)
let attempt ~seed ~budget ~cell_fuel ~elapsed warmed rate =
  let run (w : world) window =
    Fun.protect
      ~finally:(fun () -> elapsed := K.now w.k)
      (fun () -> Budget.run_kernel window w.k)
  in
  let finished = function
    | Budget.Done _ -> Ok ()
    | Budget.Exhausted e ->
        Error ("budget exhausted: " ^ Budget.exhausted_name e)
  in
  let* w = warmed (fun w -> finished (run w budget)) in
  Injector.reinit w.inj ~rate ~seed;
  let st = fresh_state w in
  spawn_window w st;
  match run w (Budget.with_fuel budget ~fuel:cell_fuel) with
  | Budget.Exhausted Budget.Fuel when st.done_at > 0 -> Ok (audit w st ~rate)
  | outcome -> Result.map (fun () -> audit w st ~rate) (finished outcome)

(* One supervised sweep cell: a trapped or exhausted attempt is retried
   up to [max_retries] times, unless the deadline has passed.  Every
   attempt gets its own warmed world, so nothing is rolled back between
   attempts.  A cell that spends its restart intensity becomes a
   [degraded] row, whose [elapsed] is the simulated time at the last
   failure. *)
let supervised_cell ~seed ~ops ~max_retries ~budget ~cell_fuel ~label warmed
    rate =
  let elapsed = ref 0 in
  match
    Supervisor.run ~max_retries ~budget (fun () ->
        attempt ~seed ~budget ~cell_fuel ~elapsed warmed rate)
  with
  | Ok cell -> cell
  | Error d ->
      degraded_cell ~label ~rate ~ops { d with Degraded.elapsed = !elapsed }

(* One unsupervised rerun-engine attempt per point. *)
let run_cell ~seed ~ops ~rate mechanism =
  let warmed = warmed_world ~warmup:(default_warmup ops) ~ops Rerun mechanism in
  let cell rate =
    match
      attempt ~seed ~budget:(Budget.create ()) ~cell_fuel:default_cell_fuel
        ~elapsed:(ref 0) warmed rate
    with
    | Ok c -> c
    | Error e -> failwith e
  in
  let baseline = cell 0.0 in
  with_overhead ~baseline (cell rate)

(* ------------------------------------------------------------------ *)
(* drills                                                              *)
(* ------------------------------------------------------------------ *)

let drill_memory ~seed : FR.drill list =
  let words = 64 and steps = 60 and scrub_every = 8 in
  let golden = Array.init words pattern in
  (* unprotected: upsets accumulate until the audit *)
  let inj = Injector.create ~rate:0.25 ~seed () in
  let arr = Array.init words pattern in
  for step = 1 to steps do
    if Injector.fires inj then Faulty_core.mem_flip inj arr ~time:step
  done;
  let wrong = ref 0 in
  Array.iteri (fun i v -> if v <> golden.(i) then incr wrong) arr;
  let plain_injected = Injector.injected inj in
  let plain =
    {
      FR.d_site = "memory";
      d_mechanism = "none";
      d_injected = plain_injected;
      d_detected = 0;
      d_recovered = plain_injected - !wrong;
    }
  in
  (* protected: three copies, periodic majority-vote scrub *)
  let inj = Injector.create ~rate:0.25 ~seed:(seed + 1) () in
  let a = Array.init words pattern
  and b = Array.init words pattern
  and c = Array.init words pattern in
  for step = 1 to steps do
    if Injector.fires inj then
      Faulty_core.mem_flip inj
        (Codesign_ir.Rng.pick (Injector.shape inj) [ a; b; c ])
        ~time:step;
    if step mod scrub_every = 0 then
      ignore (Faulty_core.scrub3 inj a b c ~time:step)
  done;
  ignore (Faulty_core.scrub3 inj a b c ~time:steps);
  let wrong = ref 0 in
  Array.iteri (fun i v -> if v <> golden.(i) then incr wrong) a;
  let tmr_injected = Injector.injected inj in
  let tmr =
    {
      FR.d_site = "memory";
      d_mechanism = "tmr-scrub";
      d_injected = tmr_injected;
      d_detected = Injector.detected inj;
      d_recovered = tmr_injected - !wrong;
    }
  in
  [ plain; tmr ]

let drill_irq ~seed : FR.drill list =
  let events = 40 and period = 50 in
  let k = K.create () in
  let inj = Injector.create ~rate:0.2 ~seed () in
  let ic = Interrupt.create () in
  let fi = Faulty_core.Irq.create k inj ic in
  let real = ref 0 and handled = ref 0 in
  let polled = ref 0 and rejected = ref 0 in
  let dev_done = ref false in
  K.spawn ~name:"irq.device" k (fun () ->
      for _ = 1 to events do
        K.wait period;
        incr real;
        (* line 3 carries real events; line 5 has no device behind it *)
        Faulty_core.Irq.raise_line fi 3;
        Faulty_core.Irq.tick fi 5
      done;
      dev_done := true);
  K.spawn ~name:"irq.handler" k (fun () ->
      let rec loop () =
        K.wait (period / 2);
        (* validation: an interrupt with no cause behind it is rejected *)
        if Interrupt.pending ic land (1 lsl 5) <> 0 then begin
          Interrupt.ack ic 5;
          incr rejected;
          Injector.detected_event inj Injector.Irq ~time:(K.now k)
        end;
        if Interrupt.pending ic land (1 lsl 3) <> 0 then begin
          Interrupt.ack ic 3;
          incr handled
        end;
        (* polling fallback: the device's status count says we missed one *)
        if !real > !handled && Interrupt.pending ic land (1 lsl 3) = 0 then begin
          incr handled;
          incr polled;
          Injector.detected_event inj Injector.Irq ~time:(K.now k)
        end;
        if not (!dev_done && !handled >= !real && Interrupt.pending ic = 0)
        then loop ()
      in
      loop ());
  ignore (K.run ~bound:(K.Until (events * period * 4)) k);
  let injected = Injector.injected inj in
  [
    {
      FR.d_site = "irq";
      d_mechanism = "validate+poll";
      d_injected = injected;
      d_detected = Injector.detected inj;
      d_recovered = min injected (!polled + !rejected);
    };
  ]

let drill_cpu ~seed : FR.drill list =
  (* sum 1..10 into mem[0]: the workload a supervisor re-runs on faults *)
  let prog : Isa.program =
    [|
      Isa.Li (1, 0);
      Isa.Li (2, 1);
      Isa.Li (3, 10);
      Isa.Alu (Isa.Add, 1, 1, 2);
      Isa.Alui (Isa.Add, 2, 2, 1);
      Isa.B (Isa.Ge, 3, 2, 3);
      Isa.Sw (1, 0, 0);
      Isa.Halt;
    |]
  in
  let expected = 55 in
  let inj = Injector.create ~rate:0.02 ~seed () in
  let episodes = 12 and step_cap = 2000 in
  let traps_seen = ref 0 and recovered_events = ref 0 in
  (* a measurement, not a deadline-bounded sweep: no wall deadline *)
  let budget = Budget.create () in
  let episode () =
    let cpu = Cpu.create ~mem_words:16 prog in
    let steps = ref 0 in
    while Cpu.status cpu = Cpu.Running && !steps < step_cap do
      ignore (Faulty_core.cpu_step inj cpu);
      incr steps
    done;
    match Cpu.status cpu with
    | Cpu.Halted when Cpu.read_mem cpu 0 = expected -> Ok ()
    | Cpu.Trapped reason ->
        (* the supervisor observes the trap and re-runs *)
        incr traps_seen;
        Injector.detected_event inj Injector.Cpu ~time:(Cpu.cycles cpu);
        Error reason
    | _ -> Error "wrong result"
  in
  for _ = 1 to episodes do
    let before = Injector.injected inj in
    match Supervisor.run ~max_retries:4 ~budget episode with
    | Ok () ->
        recovered_events := !recovered_events + (Injector.injected inj - before)
    | Error _ -> ()
  done;
  [
    {
      FR.d_site = "cpu";
      d_mechanism = "supervisor-rerun";
      d_injected = Injector.injected inj;
      d_detected = !traps_seen;
      d_recovered = !recovered_events;
    };
  ]

let drill_rtl () : FR.drill list =
  let base = N.decoder ~width:4 ~match_value:9 () in
  let vectors = 16 in
  let eval_all n =
    let sim = L.create n in
    Array.init vectors (fun v ->
        List.iteri
          (fun j (nm, _) -> L.set_input sim nm ((v lsr j) land 1))
          n.N.inputs;
        L.eval sim;
        L.output sim "hit")
  in
  let golden = eval_all base in
  let masked_count n faults =
    (* count (gate, polarity) stuck-at faults invisible at the outputs *)
    List.fold_left
      (fun acc (g, value) ->
        let out = eval_all (Tmr.stuck_at n ~gate:g ~value) in
        if out = golden then acc + 1 else acc)
      0 faults
  in
  let faults_of count =
    List.concat_map
      (fun g -> [ (g, 0); (g, 1) ])
      (List.init count (fun g -> g))
  in
  let plain_faults = faults_of (N.gate_count base) in
  let plain_masked = masked_count base plain_faults in
  let tmr_net = Tmr.triplicate base in
  let tmr_faults = faults_of (Tmr.replica_gates base) in
  let tmr_masked = masked_count tmr_net tmr_faults in
  [
    {
      FR.d_site = "rtl";
      d_mechanism = "none";
      d_injected = List.length plain_faults;
      d_detected = List.length plain_faults - plain_masked;
      d_recovered = plain_masked;
    };
    {
      FR.d_site = "rtl";
      d_mechanism = "tmr-vote";
      d_injected = List.length tmr_faults;
      d_detected = List.length tmr_faults - tmr_masked;
      d_recovered = tmr_masked;
    };
  ]

(* ------------------------------------------------------------------ *)

(* A sweep task: one of the four mechanisms, or an injected chaos
   harness fault (a pin-level world whose master is sabotaged). *)
type task = T_mech of mechanism | T_chaos of chaos

let task_label = function
  | T_mech m -> mechanism_name m
  | T_chaos c -> chaos_label c

(* All the cells of one sweep task, in report order: the rate-0
   baseline first, then each rate.  Self-contained — builds its own
   world(s) from [seed] and touches nothing shared — so tasks are the
   unit of domain-parallelism: each pool worker constructs, warms up
   and (on the fork engine) checkpoints/rewinds its own private
   snapshot copy. *)
let task_cells ~seed ~warmup ~ops ~max_retries ~budget ~cell_fuel engine
    task
    : FR.cell list =
  let chaos, mechanism =
    match task with
    | T_mech m -> (None, m)
    | T_chaos c -> (Some c, Pin)
  in
  let cell =
    supervised_cell ~seed ~ops ~max_retries ~budget ~cell_fuel
      ~label:(task_label task)
      (warmed_world ?chaos ~warmup ~ops engine mechanism)
  in
  let baseline = cell 0.0 in
  baseline
  :: List.map (fun rate -> with_overhead ~baseline (cell rate)) default_rates

let sweep ?(seed = 42) ?(ops = default_ops) ?warmup ?(jobs = 1)
    ?(max_retries = 2) ?(cell_fuel = default_cell_fuel)
    ?deadline_ms ?chaos engine : FR.cell list =
  let warmup = match warmup with Some n -> n | None -> default_warmup ops in
  (* One wall deadline over the whole sweep (no sweep-level fuel); each
     cell takes a fresh [cell_fuel] window under it. *)
  let budget = Budget.create ?deadline_ms () in
  let tasks =
    Array.of_list
      (List.map (fun m -> T_mech m) mechanisms
      @ match chaos with None -> [] | Some c -> [ T_chaos c ])
  in
  Codesign_par.Domain_pool.map ~jobs
    ~name:(fun i -> task_label tasks.(i))
    (task_cells ~seed ~warmup ~ops ~max_retries ~budget ~cell_fuel engine)
    tasks
  |> Array.to_list |> List.concat

let run ?(seed = 42) ?(ops = default_ops) ?warmup ?(engine = Fork) ?(jobs = 1)
    ?max_retries ?cell_fuel ?deadline_ms ?chaos () : FR.t =
  let warmup = match warmup with Some n -> n | None -> default_warmup ops in
  let cells =
    sweep ~seed ~ops ~warmup ~jobs ?max_retries ?cell_fuel ?deadline_ms
      ?chaos engine
  in
  let drills =
    drill_memory ~seed @ drill_irq ~seed @ drill_cpu ~seed @ drill_rtl ()
  in
  {
    FR.schema_version = FR.schema_version;
    seed;
    ops_per_cell = ops;
    warmup_per_cell = warmup;
    rates = default_rates;
    cells;
    drills;
  }
