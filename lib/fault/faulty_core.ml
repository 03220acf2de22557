module K = Codesign_sim.Kernel
module Rng = Codesign_ir.Rng
module Cpu = Codesign_isa.Cpu
module Interrupt = Codesign_bus.Interrupt

(* ------------------------------------------------------------------ *)
(* memory words                                                        *)
(* ------------------------------------------------------------------ *)

let mem_flip inj arr ~time =
  let rng = Injector.shape inj in
  let i = Rng.int rng (Array.length arr) in
  let b = Rng.int rng 10 in
  arr.(i) <- arr.(i) lxor (1 lsl b);
  Injector.injected_event inj Injector.Mem ~time

let scrub3 inj a b c ~time =
  if Array.length a <> Array.length b || Array.length b <> Array.length c then
    invalid_arg "Faulty_core.scrub3: copies differ in length";
  let repaired = ref 0 in
  for i = 0 to Array.length a - 1 do
    let m = a.(i) land b.(i) lor (a.(i) land c.(i)) lor (b.(i) land c.(i)) in
    List.iter
      (fun arr ->
        if arr.(i) <> m then begin
          arr.(i) <- m;
          incr repaired;
          Injector.detected_event inj Injector.Mem ~time
        end)
      [ a; b; c ]
  done;
  !repaired

(* ------------------------------------------------------------------ *)
(* CPU steps                                                           *)
(* ------------------------------------------------------------------ *)

let cpu_step inj cpu =
  (if Injector.fires inj then begin
     let rng = Injector.shape inj in
     let time = Cpu.cycles cpu in
     Injector.injected_event inj Injector.Cpu ~time;
     if Rng.int rng 100 < 40 then Cpu.trap cpu "injected: spurious trap"
     else begin
       (* silent register upset: only the result audit can see this *)
       let r = Rng.int_in rng 1 (Codesign_isa.Isa.n_regs - 1) in
       Cpu.set_reg cpu r (Cpu.reg cpu r lxor (1 lsl Rng.int rng 10))
     end
   end);
  Cpu.step cpu

(* ------------------------------------------------------------------ *)
(* interrupt lines                                                     *)
(* ------------------------------------------------------------------ *)

module Irq = struct
  type t = {
    k : K.t;
    inj : Injector.t;
    ic : Interrupt.t;
    mutable lost : int;
    mutable spurious : int;
  }

  let create k inj ic = { k; inj; ic; lost = 0; spurious = 0 }

  let raise_line t l =
    if Injector.fires t.inj then begin
      Injector.injected_event t.inj Injector.Irq ~time:(K.now t.k);
      t.lost <- t.lost + 1
    end
    else Interrupt.raise_line t.ic l

  let tick t l =
    if Injector.fires t.inj then begin
      Injector.injected_event t.inj Injector.Irq ~time:(K.now t.k);
      t.spurious <- t.spurious + 1;
      Interrupt.raise_line t.ic l
    end

end
