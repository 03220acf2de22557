(* Embedded controller (paper Fig. 4 / §4.1): a microprocessor reads a
   sensor and drives a transmitter through synthesised drivers and glue
   logic, co-simulated end-to-end at the bus-transaction level.

   Demonstrates the Chinook-style interface co-synthesis flow: one port
   specification produces BOTH the device driver (real assembly, shown)
   and the glue netlist (Verilog-style, shown), then the whole system
   runs: generated code on the ISS, devices on the event kernel, data
   verified at the far end.

     dune exec examples/embedded_controller.exe                         *)

module K = Codesign_sim.Kernel
module M = Codesign_bus.Memory_map
module T = Codesign_bus.Transport
module Device = Codesign_bus.Device
module Interrupt = Codesign_bus.Interrupt
module Is = Codesign_bus.Interface_synth
module Cpu = Codesign_isa.Cpu
module Asm = Codesign_isa.Asm
module I = Codesign_isa.Isa

let spec =
  {
    Is.dname = "ctl";
    base = 0x10000;
    addr_bits = 20;
    ports =
      [
        {
          Is.pname = "sensor";
          direction = Is.In_port;
          data_offset = 1;
          status_offset = Some 0;
          mode = Is.Irq_driven 0;
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

let () =
  let items = 6 in
  (* 1. Synthesise the interface. *)
  let driver, glue = Is.synthesize spec in
  Printf.printf "Synthesised drivers (%d bytes of code):\n\n"
    driver.Is.code_bytes;
  List.iter
    (fun (name, code) ->
      Printf.printf "--- %s ---\n%s\n" name (Asm.print code))
    driver.Is.routines;
  (match driver.Is.isr with
  | Some isr -> Printf.printf "--- interrupt service routine ---\n%s\n"
                  (Asm.print isr)
  | None -> ());
  Printf.printf "Glue logic: %d gates, area %d NAND-eq, %d synchroniser \
                 flops\n\n"
    glue.Is.gate_count glue.Is.area glue.Is.sync_flops;
  Printf.printf "--- glue netlist (Verilog flavour, excerpt) ---\n";
  let hdl = Codesign_rtl.Hdl_out.netlist glue.Is.netlist in
  String.split_on_char '\n' hdl
  |> List.filteri (fun i _ -> i < 14)
  |> List.iter print_endline;
  Printf.printf "  ... (%d more lines)\n\n"
    (List.length (String.split_on_char '\n' hdl) - 14);

  (* 2. Application: forward each sensor reading, doubled, to the tx. *)
  let entry =
    [
      Asm.Ins (I.Li (10, items));
      Asm.Label "loop";
      Asm.Ins (I.Jal (31, "ctl_sensor_read"));
      Asm.Ins (I.Alu (I.Add, 2, 2, 2));
      (* double it *)
      Asm.Ins (I.Jal (31, "ctl_tx_write"));
      Asm.Ins (I.Alui (I.Sub, 10, 10, 1));
      Asm.Ins (I.B (I.Ne, 10, 0, "loop"));
      Asm.Ins I.Halt;
    ]
  in
  let program = Is.program ~entry driver in

  (* 3. Assemble the system: CPU + TLM bus + devices + interrupt
     controller, and co-simulate. *)
  let k = K.create () in
  let ic = Interrupt.create () in
  let sensor =
    Device.Stream_src.create ~irq:(ic, 0) ~period:150 ~count:items
      ~gen:(fun i -> 10 + i)
      k ()
  in
  let tx = Device.Stream_sink.create ~period:30 k () in
  let map =
    M.create
      [
        Device.Stream_src.region ~name:"sensor" ~base:0x10000 sensor;
        Device.Stream_sink.region ~name:"tx" ~base:0x10010 tx;
        Interrupt.region ~name:"intc" ~base:0x1FF00 ic;
      ]
  in
  let bus = T.tlm k map in
  let img = Asm.assemble program in
  let env =
    {
      Cpu.default_env with
      Cpu.mem_read =
        (fun a -> if a >= 0x10000 then Some (bus.T.read a) else None);
      mem_write =
        (fun a v ->
          if a >= 0x10000 then (bus.T.write a v; true) else false);
    }
  in
  let cpu = Cpu.create ~env img.Asm.code in
  Interrupt.on_change ic (Cpu.set_irq cpu);
  K.spawn ~name:"cpu" k (fun () ->
      while Cpu.status cpu = Cpu.Running do
        let cy = Cpu.step cpu in
        if cy > 0 then K.wait cy
      done);
  let stats = K.run ~bound:K.Quiesce k in
  Printf.printf "Co-simulation: %d kernel events, finished at t=%d, CPU \
                 retired %d instructions.\n"
    stats.K.events stats.K.end_time (Cpu.instret cpu);
  let got = Device.Stream_sink.accepted tx in
  let expected = List.init items (fun i -> 2 * (10 + i)) in
  Printf.printf "Transmitted: [%s]\n"
    (String.concat "; " (List.map string_of_int got));
  Printf.printf "Expected:    [%s]  ->  %s\n"
    (String.concat "; " (List.map string_of_int expected))
    (if got = expected then "VERIFIED" else "MISMATCH!")
