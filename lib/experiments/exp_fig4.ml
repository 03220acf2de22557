(** EXP-4 — paper Fig. 4 / §4.1: the embedded microprocessor system and
    Chinook-style interface co-synthesis [11].

    For the canonical embedded configuration (microprocessor + sensor +
    transmitter + glue logic) we synthesise both halves of the HW/SW
    interface in polled and in interrupt-driven mode, then co-simulate
    each complete system (generated drivers running on the ISS over the
    TLM bus against live device models) and verify the data stream.

    Expected shape: the polled drivers need less glue hardware (no
    synchroniser flops) but burn more processor cycles busy-waiting; the
    interrupt drivers add hardware (synchronisers, ISR code bytes) and
    spend fewer instructions per transfer. *)

module K = Codesign_sim.Kernel
module M = Codesign_bus.Memory_map
module Bus = Codesign_bus.Bus
module T = Codesign_bus.Transport
module Device = Codesign_bus.Device
module Interrupt = Codesign_bus.Interrupt
module Is = Codesign_bus.Interface_synth
module Cpu = Codesign_isa.Cpu
module Asm = Codesign_isa.Asm
module I = Codesign_isa.Isa
open Codesign

let spec ~irq_mode =
  {
    Is.dname = "io";
    base = 0x10000;
    addr_bits = 20;
    ports =
      [
        {
          Is.pname = "sensor";
          direction = Is.In_port;
          data_offset = 1;
          status_offset = Some 0;
          mode = (if irq_mode then Is.Irq_driven 0 else Is.Polled);
        };
        {
          Is.pname = "tx";
          direction = Is.Out_port;
          data_offset = 0x11;
          status_offset = Some 0x10;
          mode = Is.Polled;
        };
      ];
  }

let echo_entry items =
  [
    Asm.Ins (I.Li (10, items));
    Asm.Label "echo_loop";
    Asm.Ins (I.Jal (31, "io_sensor_read"));
    Asm.Ins (I.Jal (31, "io_tx_write"));
    Asm.Ins (I.Alui (I.Sub, 10, 10, 1));
    Asm.Ins (I.B (I.Ne, 10, 0, "echo_loop"));
    Asm.Ins I.Halt;
  ]

type outcome = {
  mode : string;
  driver_bytes : int;
  has_isr : bool;
  glue_gates : int;
  glue_area : int;
  sync_flops : int;
  cpu_instructions : int;
  bus_reads : int;
  sim_cycles : int;
  transferred : int list;
}

let run_mode ~irq_mode ~items =
  let driver, glue = Is.synthesize (spec ~irq_mode) in
  let entry = Is.program ~entry:(echo_entry items) driver in
  let k = K.create () in
  let ic = Interrupt.create () in
  let src_irq = if irq_mode then Some (ic, 0) else None in
  let src =
    Device.Stream_src.create ?irq:src_irq ~depth:4 ~period:120 ~count:items
      ~gen:(fun i -> (i * 5) + 1)
      k ()
  in
  let sink = Device.Stream_sink.create ~period:40 k () in
  let map =
    M.create
      [
        Device.Stream_src.region ~name:"src" ~base:0x10000 src;
        Device.Stream_sink.region ~name:"sink" ~base:0x10010 sink;
        Interrupt.region ~name:"intc" ~base:0x1FF00 ic;
      ]
  in
  let bus = T.tlm k map in
  let img = Asm.assemble entry in
  let env =
    {
      Cpu.default_env with
      Cpu.mem_read =
        (fun a -> if a >= 0x10000 then Some (bus.T.read a) else None);
      mem_write =
        (fun a v ->
          if a >= 0x10000 then begin
            bus.T.write a v;
            true
          end
          else false);
    }
  in
  let cpu = Cpu.create ~env img.Asm.code in
  Interrupt.on_change ic (fun level -> Cpu.set_irq cpu level);
  let done_at = ref 0 in
  K.spawn ~name:"cpu" k (fun () ->
      while Cpu.status cpu = Cpu.Running do
        let cy = Cpu.step cpu in
        if cy > 0 then K.wait cy
      done;
      done_at := K.now k);
  ignore (K.run ~bound:K.Quiesce k);
  (if Cpu.status cpu <> Cpu.Halted then
     let status =
       match Cpu.status cpu with
       | Cpu.Running -> "still running"
       | Cpu.Trapped m -> "trapped: " ^ m
       | Cpu.Halted -> assert false
     in
     failwith
       (Printf.sprintf
          "Exp_fig4: CPU did not halt in %s mode (%s at pc %d, kernel time %d)"
          (if irq_mode then "interrupt" else "polled")
          status (Cpu.pc cpu) (K.now k)));
  {
    mode = (if irq_mode then "interrupt" else "polled");
    driver_bytes = driver.Is.code_bytes;
    has_isr = driver.Is.isr <> None;
    glue_gates = glue.Is.gate_count;
    glue_area = glue.Is.area;
    sync_flops = glue.Is.sync_flops;
    cpu_instructions = Cpu.instret cpu;
    bus_reads = (bus.T.stats ()).Bus.reads;
    sim_cycles = !done_at;
    transferred = Codesign_bus.Device.Stream_sink.accepted sink;
  }

let run ?(quick = false) () =
  let items = if quick then 4 else 16 in
  let polled = run_mode ~irq_mode:false ~items in
  let irq = run_mode ~irq_mode:true ~items in
  let expected = List.init items (fun i -> (i * 5) + 1) in
  let row (o : outcome) =
    [
      o.mode;
      Report.fi o.driver_bytes;
      (if o.has_isr then "yes" else "no");
      Report.fi o.glue_gates;
      Report.fi o.glue_area;
      Report.fi o.sync_flops;
      Report.fi o.cpu_instructions;
      Report.fi o.bus_reads;
      Report.fi o.sim_cycles;
      (if o.transferred = expected then "ok" else "CORRUPT");
    ]
  in
  Report.table
    ~title:
      (Printf.sprintf
         "EXP-4 (Fig. 4 / SS4.1): interface co-synthesis for the embedded \
          microprocessor system (%d transfers, co-simulated end-to-end)"
         items)
    ~headers:
      [ "driver mode"; "driver bytes"; "isr"; "glue gates"; "glue area";
        "sync flops"; "cpu instrs"; "bus reads"; "sim cycles"; "data" ]
    [ row polled; row irq ]

let shape_holds ?(quick = true) () =
  let items = if quick then 4 else 16 in
  let polled = run_mode ~irq_mode:false ~items in
  let irq = run_mode ~irq_mode:true ~items in
  let expected = List.init items (fun i -> (i * 5) + 1) in
  polled.transferred = expected
  && irq.transferred = expected
  && irq.driver_bytes > polled.driver_bytes
  && irq.sync_flops > polled.sync_flops
  && irq.bus_reads < polled.bus_reads
