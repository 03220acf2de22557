type status = Running | Halted | Trapped of string

type env = {
  port_in : int -> int;
  port_out : int -> int -> unit;
  custom : int -> int -> int -> int -> int;
  custom_latency : int -> int;
  mem_read : int -> int option;
  mem_write : int -> int -> bool;
}

let default_env =
  {
    port_in = (fun _ -> 0);
    port_out = (fun _ _ -> ());
    custom = (fun _ _ _ _ -> 0);
    custom_latency = (fun _ -> 1);
    mem_read = (fun _ -> None);
    mem_write = (fun _ _ -> false);
  }

type t = {
  code : Isa.program;
  mutable mem : int array;
      (* the allocated prefix of data memory; addresses past it but below
         [mem_words] read 0.  A store past it grows the prefix ([grow]),
         which replaces the array, so no executor may hold [mem] across
         instructions *)
  mem_words : int;
  regs : int array;
  env : env;
  plain_mem : bool;
      (* both memory hooks are the defaults (pure no-ops): the only case
         the block tier runs, accessing [mem] directly — nothing can
         perturb core state inside a block *)
  mutable pc : int;
  mutable cycles : int;
  mutable instret : int;
  mutable status : status;
  mutable irq_line : bool;
  mutable irq_enable : bool;
  mutable in_isr : bool;
  mutable epc : int;
  mutable retire_cb : (pc:int -> cycles:int -> unit) option;
  mutable blocks : Block_compiler.cache option;
      (* decoded-block cache for [run_blocks]; built lazily on first
         block dispatch and never invalidated — [code] is immutable for
         the life of the CPU, so it survives [reset] *)
}

(* the instruction index an accepted interrupt jumps to *)
let irq_vector = 1

let create ?(mem_words = 65536) ?(env = default_env) code =
  (* no allocation checks the size any more, so check it here *)
  if mem_words < 0 || mem_words > Sys.max_array_length then
    invalid_arg
      (Printf.sprintf "Cpu.create: mem_words %d is not a valid array size"
         mem_words);
  {
    code;
    mem = [||];
    mem_words;
    regs = Array.make Isa.n_regs 0;
    env;
    plain_mem =
      env.mem_read == default_env.mem_read
      && env.mem_write == default_env.mem_write;
    pc = 0;
    cycles = 0;
    instret = 0;
    status = Running;
    irq_line = false;
    irq_enable = false;
    in_isr = false;
    epc = 0;
    retire_cb = None;
    blocks = None;
  }

let reset t =
  Array.fill t.regs 0 Isa.n_regs 0;
  t.pc <- 0;
  t.cycles <- 0;
  t.instret <- 0;
  t.status <- Running;
  t.irq_enable <- false;
  t.in_isr <- false;
  t.epc <- 0;
  (* a latched request line or retirement callback from the previous run
     must not leak into the next one: a stale high line would fire an
     interrupt right after the first [Ei] *)
  t.irq_line <- false;
  t.retire_cb <- None

type snap = {
  s_mem : int array;
  s_mem_words : int;
  s_regs : int array;
  s_pc : int;
  s_cycles : int;
  s_instret : int;
  s_status : status;
  s_irq_line : bool;
  s_irq_enable : bool;
  s_in_isr : bool;
  s_epc : int;
}

let snapshot t =
  {
    s_mem = Array.copy t.mem;
    s_mem_words = t.mem_words;
    s_regs = Array.copy t.regs;
    s_pc = t.pc;
    s_cycles = t.cycles;
    s_instret = t.instret;
    s_status = t.status;
    s_irq_line = t.irq_line;
    s_irq_enable = t.irq_enable;
    s_in_isr = t.in_isr;
    s_epc = t.epc;
  }

let restore t s =
  if s.s_mem_words <> t.mem_words then
    invalid_arg "Cpu.restore: snapshot from a CPU with a different mem size";
  (* a copy, not a blit: words written past the snapshot's prefix since
     then must read 0 again *)
  t.mem <- Array.copy s.s_mem;
  Array.blit s.s_regs 0 t.regs 0 (Array.length t.regs);
  t.pc <- s.s_pc;
  t.cycles <- s.s_cycles;
  t.instret <- s.s_instret;
  t.status <- s.s_status;
  t.irq_line <- s.s_irq_line;
  t.irq_enable <- s.s_irq_enable;
  t.in_isr <- s.s_in_isr;
  t.epc <- s.s_epc

let status t = t.status
let cycles t = t.cycles
let pc t = t.pc
let instret t = t.instret
let reg t r = t.regs.(r)

let set_reg t r v = if r <> 0 then t.regs.(r) <- v

let trap t reason = t.status <- Trapped reason

let in_space t a = a >= 0 && a < t.mem_words

(* Grow the allocated prefix to hold [a] (past the prefix, inside the
   address space): to the next power of two, at least 256 words, capped
   at [mem_words]. *)
let grow t a =
  let len = Array.length t.mem in
  let n = ref (max 256 (2 * len)) in
  while !n <= a do
    n := 2 * !n
  done;
  let mem = Array.make (min !n t.mem_words) 0 in
  Array.blit t.mem 0 mem 0 len;
  t.mem <- mem

let read_mem t a =
  if a >= 0 && a < Array.length t.mem then t.mem.(a)
  else begin
    if not (in_space t a) then
      trap t (Printf.sprintf "Cpu.read_mem: address %d out of range" a);
    0
  end

let write_mem t a v =
  if not (in_space t a) then
    trap t (Printf.sprintf "Cpu.write_mem: address %d out of range" a)
  else begin
    if a >= Array.length t.mem then grow t a;
    t.mem.(a) <- v
  end

let first_mem_difference a b =
  let ma = a.mem and mb = b.mem in
  let common = min (Array.length ma) (Array.length mb)
  and n = max (Array.length ma) (Array.length mb) in
  let i = ref 0 in
  while !i < common && Array.unsafe_get ma !i = Array.unsafe_get mb !i do
    incr i
  done;
  (* past the shorter prefix its words read 0 *)
  let longer = if Array.length ma > Array.length mb then ma else mb in
  if !i = common then
    while !i < n && Array.unsafe_get longer !i = 0 do
      incr i
    done;
  let word m = if !i < Array.length m then m.(!i) else 0 in
  if !i < n then Some (!i, word ma, word mb) else None

let set_irq t level = t.irq_line <- level
let on_retire t cb = t.retire_cb <- Some cb

let alu op a b =
  match op with
  | Isa.Add -> a + b
  | Isa.Sub -> a - b
  | Isa.Mul -> a * b
  | Isa.Div -> if b = 0 then 0 else a / b
  | Isa.Rem -> if b = 0 then 0 else a mod b
  | Isa.And -> a land b
  | Isa.Or -> a lor b
  | Isa.Xor -> a lxor b
  | Isa.Shl -> a lsl (b land 31)
  | Isa.Shr -> a asr (b land 31)
  | Isa.Slt -> if a < b then 1 else 0
  | Isa.Seq -> if a = b then 1 else 0

let cond c a b =
  match c with
  | Isa.Eq -> a = b
  | Isa.Ne -> a <> b
  | Isa.Lt -> a < b
  | Isa.Ge -> a >= b

exception Trap of string

(* The slow path of a data access past the allocated prefix: outside
   the address space it traps. *)
let mem_miss t addr pc =
  if not (in_space t addr) then
    raise (Trap (Printf.sprintf "mem access %d at pc %d" addr pc))

let step t =
  match t.status with
  | Halted | Trapped _ -> 0
  | Running -> (
      (* take a pending interrupt between instructions *)
      if t.irq_line && t.irq_enable && not t.in_isr then begin
        let intr_pc = t.pc in
        t.epc <- t.pc;
        t.pc <- irq_vector;
        t.in_isr <- true;
        t.irq_enable <- false;
        t.cycles <- t.cycles + 2;
        (* interrupt entry overhead: 2 cycles attributed to the
           interrupted pc, so [Profiler.total_cycles] tracks [cycles]
           exactly even on IRQ workloads *)
        (match t.retire_cb with
        | Some cb -> cb ~pc:intr_pc ~cycles:2
        | None -> ());
        2
      end
      else if t.pc < 0 || t.pc >= Array.length t.code then begin
        t.status <- Trapped (Printf.sprintf "pc %d out of range" t.pc);
        0
      end
      else
        let i = t.code.(t.pc) in
        let this_pc = t.pc in
        let next = t.pc + 1 in
        try
          (* the execute match returns the step's latency directly: no
             [ref] cell and no bounds-check closure allocated per step *)
          let lat0 = Isa.default_latency i in
          let lat =
            match i with
            | Isa.Alu (op, d, a, b) ->
                set_reg t d (alu op t.regs.(a) t.regs.(b));
                t.pc <- next;
                lat0
            | Isa.Alui (op, d, a, imm) ->
                set_reg t d (alu op t.regs.(a) imm);
                t.pc <- next;
                lat0
            | Isa.Li (d, imm) ->
                set_reg t d imm;
                t.pc <- next;
                lat0
            | Isa.Lw (d, a, off) ->
                let addr = t.regs.(a) + off in
                (match t.env.mem_read addr with
                | Some v -> set_reg t d v
                | None ->
                    let mem = t.mem in
                    if addr >= 0 && addr < Array.length mem then
                      set_reg t d (Array.unsafe_get mem addr)
                    else begin
                      mem_miss t addr this_pc;
                      set_reg t d 0
                    end);
                t.pc <- next;
                lat0
            | Isa.Sw (s, a, off) ->
                let addr = t.regs.(a) + off in
                if not (t.env.mem_write addr t.regs.(s)) then begin
                  if addr < 0 || addr >= Array.length t.mem then begin
                    mem_miss t addr this_pc;
                    grow t addr
                  end;
                  t.mem.(addr) <- t.regs.(s)
                end;
                t.pc <- next;
                lat0
            | Isa.B (c, a, b, tgt) ->
                if cond c t.regs.(a) t.regs.(b) then begin
                  t.pc <- tgt;
                  lat0 + 1 (* taken-branch penalty *)
                end
                else begin
                  t.pc <- next;
                  lat0
                end
            | Isa.J tgt ->
                t.pc <- tgt;
                lat0
            | Isa.Jal (d, tgt) ->
                set_reg t d next;
                t.pc <- tgt;
                lat0
            | Isa.Jr r ->
                t.pc <- t.regs.(r);
                lat0
            | Isa.In (d, port) ->
                set_reg t d (t.env.port_in port);
                t.pc <- next;
                lat0
            | Isa.Out (port, s) ->
                t.env.port_out port t.regs.(s);
                t.pc <- next;
                lat0
            | Isa.Custom (e, d, a, b) ->
                set_reg t d (t.env.custom e t.regs.(d) t.regs.(a) t.regs.(b));
                t.pc <- next;
                t.env.custom_latency e
            | Isa.Ei ->
                t.irq_enable <- true;
                t.pc <- next;
                lat0
            | Isa.Di ->
                t.irq_enable <- false;
                t.pc <- next;
                lat0
            | Isa.Rti ->
                t.pc <- t.epc;
                t.in_isr <- false;
                t.irq_enable <- true;
                lat0
            | Isa.Nop ->
                t.pc <- next;
                lat0
            | Isa.Halt ->
                (* pc stays on the Halt instruction: advancing past the
                   end of the code array leaked an out-of-range pc into
                   snapshots and fuzz comparisons *)
                t.status <- Halted;
                lat0
          in
          t.cycles <- t.cycles + lat;
          t.instret <- t.instret + 1;
          (match t.retire_cb with
          | Some cb -> cb ~pc:this_pc ~cycles:lat
          | None -> ());
          lat
        with Trap msg ->
          t.status <- Trapped msg;
          0)

(* A pattern match instead of [t.status = Running]: [status] carries a
   string payload, so [=] is a generic-equality call — too expensive
   for a per-step check. *)
let is_running t = match t.status with Running -> true | _ -> false

(* The step loop behind [run] and the block tier's fallback: up to
   [fuel] calls to [step], stopping early on [Halted]/[Trapped].
   Returns the fuel steps taken. *)
let step_loop t ~fuel =
  let steps = ref 0 in
  while is_running t && !steps < fuel do
    ignore (step t);
    incr steps
  done;
  !steps

let run ?(fuel = 50_000_000) t =
  ignore (step_loop t ~fuel);
  if t.status = Running then t.status <- Trapped "fuel exhausted";
  t.status

(* ------------------------------------------------------------------ *)
(* the block-compiled tier                                             *)
(* ------------------------------------------------------------------ *)

module Bc = Block_compiler

(* Index mappings fixed by [Block_compiler.cond_index] and, inlined in
   [exec_fast], [Block_compiler.alu_index]; the step = block
   equivalence suite in test_compiled.ml pins them against the
   variant-based [cond]/[alu]. *)
let cond_apply idx a b =
  match idx with 0 -> a = b | 1 -> a <> b | 2 -> a < b | _ -> a >= b

(* The block executor.  [run_blocks] enters it only when memory is
   hook-free ([plain_mem]), no retire callback is installed, and the
   fuel left covers the block's worst case ([n] steps).  Under those premises nothing can stop the walk
   mid-block except a trapping memory access, so there is no per-record
   fuel check and no cycles/instret accumulator: each record is just
   operand loads plus the operation, and the block exit charges the
   precomputed [full_cycles]/[full_instrs] totals in one update.  Every
   exit leaves [t.pc] exactly where a [step] loop would have.  The
   result is the fuel consumed so far — retired instructions, plus one
   for a trapping access — which [acc] threads through the chain.

   The walk is a tail recursion over the record index with every piece
   of state an explicit argument of a top-level function — no refs and
   no local closures, so the hot loop is allocation-free, the same
   discipline as [Logic_sim.eval].  Reads of the uop array are
   unchecked: every index is produced by [Block_compiler.compile_block]
   over its own fixed-stride records, never by guest data.
   Register-file accesses are unchecked as well — every register index
   was validated at decode time ([Block_compiler.regs_ok]; blocks with
   out-of-range registers never compile) — and memory accesses go
   unchecked behind their one range test on the allocated prefix,
   re-read from [t] at every access because a store past the prefix
   grows (replaces) it.  A miss inside the address space reads 0 or
   grows; the trap exit is the one slow case: it reconstructs the
   partial cycle sum by re-walking the lat fields of the records
   already executed, and leaves pc on the faulting instruction as
   [step] does.

   Block chaining: a terminator that leaves the core Running jumps
   straight into the successor block through [exec_chain] when that
   block is already decoded and the remaining fuel covers its worst
   case, skipping the dispatcher round trip entirely (the dominant
   cost for short loop bodies).  This is sound because the dispatcher's
   re-checks cannot change outcome mid-chain: the pending-interrupt
   condition was false at dispatch and only unsafe instructions
   (Ei/Di/Rti — never inside a block) or memory hooks (absent) can
   make it true, and [Halt] ends the chain. *)
let exec_fast_trap t u acc i addr =
  let cy = ref 0 in
  for k = 0 to i - 1 do
    cy := !cy + Array.unsafe_get u ((k * 6) + 4)
  done;
  let pcrec = Array.unsafe_get u ((i * 6) + 5) in
  t.status <- Trapped (Printf.sprintf "mem access %d at pc %d" addr pcrec);
  t.pc <- pcrec;
  t.cycles <- t.cycles + !cy;
  t.instret <- t.instret + i;
  acc + i + 1

let rec exec_fast t entries fuel_left acc u fc fi i =
  let base = i * 6 in
  let op = Array.unsafe_get u base in
  let regs = t.regs in
  if op < Bc.uop_li then begin
    (* reg-reg and reg-imm ALU share one inlined operator dispatch —
       a direct jump table on the alu index, no out-of-line call *)
    let a = Array.unsafe_get regs (Array.unsafe_get u (base + 2)) in
    let y = Array.unsafe_get u (base + 3) in
    let imm = op >= Bc.uop_alui in
    let idx = if imm then op - Bc.uop_alui else op in
    let b = if imm then y else Array.unsafe_get regs y in
    let v =
      match idx with
      | 0 -> a + b
      | 1 -> a - b
      | 2 -> a * b
      | 3 -> if b = 0 then 0 else a / b
      | 4 -> if b = 0 then 0 else a mod b
      | 5 -> a land b
      | 6 -> a lor b
      | 7 -> a lxor b
      | 8 -> a lsl (b land 31)
      | 9 -> a asr (b land 31)
      | 10 -> if a < b then 1 else 0
      | _ -> if a = b then 1 else 0
    in
    let d = Array.unsafe_get u (base + 1) in
    if d <> 0 then Array.unsafe_set regs d v;
    exec_fast t entries fuel_left acc u fc fi (i + 1)
  end
  else if op = Bc.uop_li then begin
    let d = Array.unsafe_get u (base + 1) in
    if d <> 0 then Array.unsafe_set regs d (Array.unsafe_get u (base + 2));
    exec_fast t entries fuel_left acc u fc fi (i + 1)
  end
  else if op = Bc.uop_lw then begin
    let addr =
      Array.unsafe_get regs (Array.unsafe_get u (base + 2))
      + Array.unsafe_get u (base + 3)
    in
    let mem = t.mem in
    if addr >= 0 && addr < Array.length mem then begin
      let d = Array.unsafe_get u (base + 1) in
      if d <> 0 then Array.unsafe_set regs d (Array.unsafe_get mem addr);
      exec_fast t entries fuel_left acc u fc fi (i + 1)
    end
    else if in_space t addr then begin
      let d = Array.unsafe_get u (base + 1) in
      if d <> 0 then Array.unsafe_set regs d 0;
      exec_fast t entries fuel_left acc u fc fi (i + 1)
    end
    else exec_fast_trap t u acc i addr
  end
  else if op = Bc.uop_sw then begin
    let addr =
      Array.unsafe_get regs (Array.unsafe_get u (base + 2))
      + Array.unsafe_get u (base + 3)
    in
    let mem = t.mem in
    if addr >= 0 && addr < Array.length mem then begin
      Array.unsafe_set mem addr
        (Array.unsafe_get regs (Array.unsafe_get u (base + 1)));
      exec_fast t entries fuel_left acc u fc fi (i + 1)
    end
    else if in_space t addr then begin
      (* grow, then run the same record again: it now hits *)
      grow t addr;
      exec_fast t entries fuel_left acc u fc fi i
    end
    else exec_fast_trap t u acc i addr
  end
  else if op = Bc.uop_nop then exec_fast t entries fuel_left acc u fc fi (i + 1)
  else if op < Bc.uop_j then
    if
      cond_apply (op - Bc.uop_b)
        (Array.unsafe_get regs (Array.unsafe_get u (base + 1)))
        (Array.unsafe_get regs (Array.unsafe_get u (base + 2)))
    then
      (* taken-branch penalty *)
      exec_chain t entries fuel_left acc fi (fc + 1)
        (Array.unsafe_get u (base + 3))
    else
      exec_chain t entries fuel_left acc fi fc
        (Array.unsafe_get u (base + 5) + 1)
  else if op = Bc.uop_j then
    exec_chain t entries fuel_left acc fi fc (Array.unsafe_get u (base + 1))
  else if op = Bc.uop_jal then begin
    let d = Array.unsafe_get u (base + 1) in
    if d <> 0 then Array.unsafe_set regs d (Array.unsafe_get u (base + 5) + 1);
    exec_chain t entries fuel_left acc fi fc (Array.unsafe_get u (base + 2))
  end
  else if op = Bc.uop_jr then
    exec_chain t entries fuel_left acc fi fc
      (Array.unsafe_get regs (Array.unsafe_get u (base + 1)))
  else if op = Bc.uop_halt then begin
    t.status <- Halted;
    t.pc <- Array.unsafe_get u (base + 5);
    t.cycles <- t.cycles + fc;
    t.instret <- t.instret + fi;
    acc + fi
  end
  else
    (* uop_end: the block fell off without a terminator *)
    exec_chain t entries fuel_left acc fi fc (Array.unsafe_get u (base + 1))

(* Block exit: charge the block's [fi] instructions and [cy] cycles in
   one update, then chain into the decoded successor at [pc] when the
   fuel left covers it, or hand back to the dispatcher. *)
and exec_chain t entries fuel_left acc fi cy pc =
  t.pc <- pc;
  t.cycles <- t.cycles + cy;
  t.instret <- t.instret + fi;
  let fuel_left = fuel_left - fi and acc = acc + fi in
  if pc >= 0 && pc < Array.length entries then
    match Array.unsafe_get entries pc with
    | Some (Bc.Block blk) when fuel_left >= blk.Bc.n ->
        exec_fast t entries fuel_left acc blk.Bc.uops blk.Bc.full_cycles
          blk.Bc.full_instrs 0
    | _ -> acc
  else acc

(* Only a CPU without a retire callback or memory hooks runs blocks:
   per-instruction attribution must observe an up-to-date [cycles] at
   every retirement, and a memory hook may trap the core or raise the
   request line at any access. *)
let block_tier t = Option.is_none t.retire_cb && t.plain_mem

let block_cache t =
  match t.blocks with
  | Some c -> c
  | None ->
      let c = Bc.create t.code in
      t.blocks <- Some c;
      c

let irq_pending t = t.irq_line && t.irq_enable && not t.in_isr

let run_blocks t ~fuel =
  if not (block_tier t) then step_loop t ~fuel
  else begin
    let cache = block_cache t in
    let entries = Bc.entries cache in
    let code_len = Array.length t.code in
    let steps = ref 0 in
    while is_running t && !steps < fuel do
      let pc = t.pc and left = fuel - !steps in
      if pc < 0 || pc >= code_len || irq_pending t then begin
        (* out-of-range pc trap and interrupt entry go through [step]
           so their semantics (and fuel charge) are identical by
           construction *)
        ignore (step t);
        incr steps
      end
      else
        (* hit path is a plain table load — [pc] was bounds-checked
           above and [entries] has one slot per pc *)
        match Array.unsafe_get entries pc with
        | Some (Bc.Block blk) when left >= blk.Bc.n ->
            steps :=
              !steps
              + exec_fast t entries left 0 blk.Bc.uops blk.Bc.full_cycles
                  blk.Bc.full_instrs 0
        | Some (Bc.Block _) ->
            (* the fuel left ends inside this block: spend it on the
               step loop *)
            steps := !steps + step_loop t ~fuel:left
        | Some Bc.Unsafe ->
            ignore (step t);
            incr steps
        | None ->
            (* decode on first touch, then let the loop re-dispatch *)
            ignore (Bc.get cache ~pc)
    done;
    !steps
  end

(* One block per dispatch: fuel 0 leaves [exec_chain] nothing to chain
   with, so every block is checked against the budget here ([exec_fast]
   itself never reads the fuel inside a block). *)
let run_burst t ~cycles:budget =
  if block_tier t then begin
    let cache = block_cache t in
    let entries = Bc.entries cache and code_len = Array.length t.code in
    let start = t.cycles in
    let going = ref true in
    while !going && is_running t do
      let pc = t.pc in
      if pc < 0 || pc >= code_len || irq_pending t then going := false
      else
        match Array.unsafe_get entries pc with
        | Some (Bc.Block blk)
          when blk.Bc.full_cycles < budget - (t.cycles - start) ->
            ignore
              (exec_fast t entries 0 0 blk.Bc.uops blk.Bc.full_cycles
                 blk.Bc.full_instrs 0)
        | None -> ignore (Bc.get cache ~pc)
        | Some _ -> going := false
    done
  end

let blocks_compiled t =
  match t.blocks with None -> 0 | Some c -> Bc.blocks_compiled c

let run_compiled ?(fuel = 50_000_000) t =
  ignore (run_blocks t ~fuel);
  if t.status = Running then t.status <- Trapped "fuel exhausted";
  t.status
