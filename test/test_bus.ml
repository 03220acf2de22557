(* Tests for the codesign_bus library: memory map, TLM and pin-level bus
   models, interrupt controller, devices, DMA, and Chinook-style
   interface synthesis (drivers verified end-to-end on the ISS). *)

open Codesign_bus
module K = Codesign_sim.Kernel
module M = Memory_map
module T = Transport
module Cpu = Codesign_isa.Cpu
module Asm = Codesign_isa.Asm
module I = Codesign_isa.Isa

let check = Alcotest.check
let fail = Alcotest.fail

(* ------------------------------------------------------------------ *)
(* Memory_map                                                          *)
(* ------------------------------------------------------------------ *)

let test_map_decode () =
  let m =
    M.create
      [
        M.ram ~name:"ram" ~base:0 ~size:100;
        M.rom ~name:"rom" ~base:200 [| 7; 8; 9 |];
      ]
  in
  (match M.decode m 50 with
  | Some (r, off) ->
      check Alcotest.string "ram" "ram" r.M.name;
      check Alcotest.int "off" 50 off
  | None -> fail "decode");
  check Alcotest.bool "unmapped" true (M.decode m 150 = None);
  M.write m 10 42;
  check Alcotest.int "ram rw" 42 (M.read m 10);
  check Alcotest.int "rom read" 8 (M.read m 201);
  (try
     M.write m 201 0;
     fail "rom write"
   with Invalid_argument _ -> ());
  try
    ignore (M.read m 1000);
    fail "unmapped read"
  with Invalid_argument _ -> ()

let test_map_overlap () =
  try
    ignore
      (M.create
         [ M.ram ~name:"a" ~base:0 ~size:10; M.ram ~name:"b" ~base:5 ~size:10 ]);
    fail "overlap"
  with Invalid_argument _ -> ()

let test_map_device () =
  let log = ref [] in
  let h =
    M.simple_handlers
      ~wait_states:(fun off -> off * 3)
      (fun off -> off + 100)
      (fun off v -> log := (off, v) :: !log)
  in
  let m = M.create [ M.device ~name:"d" ~base:64 ~size:4 h ] in
  check Alcotest.int "dev read" 102 (M.read m 66);
  M.write m 65 9;
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "dev write" [ (1, 9) ] !log;
  check Alcotest.int "wait states" 6 (M.wait_states m 66);
  check Alcotest.int "no ws for ram" 0 (M.wait_states m 9999)

(* ------------------------------------------------------------------ *)
(* Bus models                                                          *)
(* ------------------------------------------------------------------ *)

let test_tlm_read_write () =
  let k = K.create () in
  let m = M.create [ M.ram ~name:"ram" ~base:0 ~size:64 ] in
  let bus = Bus.Tlm.create ~read_latency:3 ~write_latency:2 k m in
  let got = ref (-1) in
  K.spawn k (fun () ->
      Bus.Tlm.write bus 5 77;
      got := Bus.Tlm.read bus 5);
  let st = K.run k in
  check Alcotest.int "value" 77 !got;
  check Alcotest.int "time = 2+3" 5 st.K.end_time;
  let s = Bus.Tlm.stats bus in
  check Alcotest.int "reads" 1 s.Bus.reads;
  check Alcotest.int "writes" 1 s.Bus.writes;
  check Alcotest.int "busy" 5 s.Bus.busy_cycles

let test_tlm_arbitration () =
  let k = K.create () in
  let m = M.create [ M.ram ~name:"ram" ~base:0 ~size:64 ] in
  let bus = Bus.Tlm.create ~read_latency:4 ~write_latency:4 k m in
  let done_times = ref [] in
  for i = 1 to 3 do
    K.spawn ~name:(Printf.sprintf "m%d" i) k (fun () ->
        ignore (Bus.Tlm.read bus 0);
        done_times := (i, K.now k) :: !done_times)
  done;
  ignore (K.run k);
  (* serialised fairly: 4, 8, 12 in spawn order *)
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "fifo arbitration"
    [ (1, 4); (2, 8); (3, 12) ]
    (List.rev !done_times);
  check Alcotest.int "stalls" 2 (Bus.Tlm.stats bus).Bus.stalls

let test_pin_matches_tlm_functionally () =
  let k = K.create () in
  let m = M.create [ M.ram ~name:"ram" ~base:0 ~size:64 ] in
  let pin = Bus.Pin.create k m in
  let got = ref (-1) in
  K.spawn k (fun () ->
      Bus.Pin.write pin 7 123;
      got := Bus.Pin.read pin 7);
  ignore (K.run ~bound:K.Quiesce k);
  check Alcotest.int "value" 123 !got;
  let s = Bus.Pin.stats pin in
  check Alcotest.int "reads" 1 s.Bus.reads;
  check Alcotest.int "writes" 1 s.Bus.writes

let test_pin_sees_wait_states_tlm_does_not () =
  (* device with 10 wait states: pin-level accrues them, TLM does not *)
  let mk_map () =
    M.create
      [
        M.device ~name:"slow" ~base:0 ~size:2
          (M.simple_handlers ~wait_states:(fun _ -> 10) (fun _ -> 5)
             (fun _ _ -> ()));
      ]
  in
  let k1 = K.create () in
  let tlm = Bus.Tlm.create k1 (mk_map ()) in
  let t_tlm = ref 0 in
  K.spawn k1 (fun () ->
      ignore (Bus.Tlm.read tlm 0);
      t_tlm := K.now k1);
  ignore (K.run k1);
  let k2 = K.create () in
  let pin = Bus.Pin.create k2 (mk_map ()) in
  let t_pin = ref 0 in
  K.spawn k2 (fun () ->
      ignore (Bus.Pin.read pin 0);
      t_pin := K.now k2);
  ignore (K.run ~bound:K.Quiesce k2);
  check Alcotest.bool "pin slower than tlm" true (!t_pin > !t_tlm);
  check Alcotest.bool "pin >= wait states" true (!t_pin >= 10)

let test_pin_generates_more_events () =
  let mk_map () = M.create [ M.ram ~name:"ram" ~base:0 ~size:64 ] in
  let run_with transport =
    let k = K.create () in
    let tr = transport k (mk_map ()) in
    K.spawn k (fun () ->
        for i = 0 to 9 do
          tr.T.write i i;
          ignore (tr.T.read i)
        done);
    let st = K.run ~bound:K.Quiesce k in
    st.K.scheduled
  in
  let ev_tlm = run_with (fun k m -> T.tlm k m) in
  let ev_pin = run_with T.pin in
  check Alcotest.bool "pin >> tlm events" true (ev_pin > 2 * ev_tlm)

(* ------------------------------------------------------------------ *)
(* Interrupt controller                                                *)
(* ------------------------------------------------------------------ *)

let test_intc_basic () =
  let ic = Interrupt.create ~lines:4 () in
  check Alcotest.bool "idle" false (Interrupt.cpu_level ic);
  check Alcotest.int "current idle" (-1) (Interrupt.current ic);
  Interrupt.raise_line ic 2;
  Interrupt.raise_line ic 1;
  check Alcotest.bool "level" true (Interrupt.cpu_level ic);
  check Alcotest.int "priority" 1 (Interrupt.current ic);
  Interrupt.ack ic 1;
  check Alcotest.int "next" 2 (Interrupt.current ic);
  Interrupt.ack ic 2;
  check Alcotest.bool "clear" false (Interrupt.cpu_level ic)

let test_intc_mask () =
  let ic = Interrupt.create ~lines:4 () in
  Interrupt.set_mask ic 0b1100;
  Interrupt.raise_line ic 0;
  check Alcotest.bool "masked" false (Interrupt.cpu_level ic);
  check Alcotest.int "current masked" (-1) (Interrupt.current ic);
  Interrupt.raise_line ic 3;
  check Alcotest.int "current" 3 (Interrupt.current ic)

let test_intc_on_change () =
  let ic = Interrupt.create () in
  let events = ref [] in
  Interrupt.on_change ic (fun l -> events := l :: !events);
  Interrupt.raise_line ic 0;
  Interrupt.raise_line ic 1;
  (* no duplicate notification *)
  Interrupt.ack ic 0;
  Interrupt.ack ic 1;
  check (Alcotest.list Alcotest.bool) "edges" [ true; false ]
    (List.rev !events)

let test_intc_region () =
  let ic = Interrupt.create () in
  let m = M.create [ Interrupt.region ~name:"intc" ~base:0 ic ] in
  Interrupt.raise_line ic 3;
  check Alcotest.int "pending reg" 0b1000 (M.read m 0);
  check Alcotest.int "current reg" 3 (M.read m 3);
  M.write m 1 0b1000;
  check Alcotest.int "acked" 0 (M.read m 0)

let test_intc_errors () =
  let ic = Interrupt.create ~lines:2 () in
  (try
     Interrupt.raise_line ic 5;
     fail "line range"
   with Invalid_argument _ -> ());
  try
    ignore (Interrupt.create ~lines:99 ());
    fail "too many lines"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Devices                                                             *)
(* ------------------------------------------------------------------ *)

let test_gpio () =
  let g = Device.Gpio.create () in
  let m = M.create [ Device.Gpio.region ~name:"gpio" ~base:0 g ] in
  M.write m 0 0xAB;
  check Alcotest.int "out latch" 0xAB (Device.Gpio.output g);
  Device.Gpio.set_input g 7;
  check Alcotest.int "in reg" 7 (M.read m 1);
  check Alcotest.int "write count" 1 (Device.Gpio.write_count g)

let test_timer () =
  let k = K.create () in
  let ic = Interrupt.create () in
  let t = Device.Timer.create ~irq:(ic, 2) k () in
  let m = M.create [ Device.Timer.region ~name:"timer" ~base:0 t ] in
  K.spawn k (fun () ->
      M.write m 1 25;
      (* compare *)
      M.write m 0 1;
      (* enable *)
      K.wait 10;
      check Alcotest.int "counting" 10 (M.read m 2);
      check Alcotest.int "not expired" 0 (M.read m 3);
      K.wait 20;
      check Alcotest.int "expired" 1 (M.read m 3);
      check Alcotest.int "irq raised" 0b100 (Interrupt.pending ic);
      M.write m 3 0;
      check Alcotest.int "status cleared" 0 (M.read m 3));
  ignore (K.run k);
  check Alcotest.int "expirations" 1 (Device.Timer.expired_count t)

let test_timer_restart_cancels () =
  let k = K.create () in
  let t = Device.Timer.create k () in
  let m = M.create [ Device.Timer.region ~name:"timer" ~base:0 t ] in
  K.spawn k (fun () ->
      M.write m 1 10;
      M.write m 0 1;
      K.wait 5;
      (* restart before expiry: the old deadline must not fire *)
      M.write m 0 1;
      K.wait 8;
      check Alcotest.int "not yet" 0 (M.read m 3);
      K.wait 5;
      check Alcotest.int "now" 1 (M.read m 3));
  ignore (K.run k);
  check Alcotest.int "single expiry" 1 (Device.Timer.expired_count t)

let test_stream_src () =
  let k = K.create () in
  let s =
    Device.Stream_src.create ~depth:2 ~period:10 ~count:5
      ~gen:(fun i -> i * i)
      k ()
  in
  let m = M.create [ Device.Stream_src.region ~name:"src" ~base:0 s ] in
  let got = ref [] in
  K.spawn ~name:"consumer" k (fun () ->
      for _ = 1 to 4 do
        (* poll availability *)
        while M.read m 0 = 0 do
          K.wait 2
        done;
        got := M.read m 1 :: !got
      done);
  ignore (K.run k);
  check (Alcotest.list Alcotest.int) "data" [ 0; 1; 4; 9 ] (List.rev !got);
  check Alcotest.int "produced" 5 (Device.Stream_src.produced s)

let test_stream_src_overrun () =
  let k = K.create () in
  let s =
    Device.Stream_src.create ~depth:2 ~period:5 ~count:6 ~gen:Fun.id k ()
  in
  ignore (K.run k);
  (* nobody consumed: fifo depth 2, 6 produced -> 4 overruns *)
  check Alcotest.int "overruns" 4 (Device.Stream_src.overruns s);
  check Alcotest.int "available" 2 (Device.Stream_src.available s)

let test_stream_sink () =
  let k = K.create () in
  let s = Device.Stream_sink.create ~period:20 k () in
  let m = M.create [ Device.Stream_sink.region ~name:"sink" ~base:0 s ] in
  K.spawn k (fun () ->
      check Alcotest.int "ready" 1 (M.read m 0);
      M.write m 1 11;
      check Alcotest.int "busy" 0 (M.read m 0);
      (* wait states reflect remaining busy time *)
      check Alcotest.int "ws" 20 (M.wait_states m 1);
      K.wait 20;
      check Alcotest.int "ready again" 1 (M.read m 0);
      M.write m 1 22);
  ignore (K.run ~bound:K.Quiesce k);
  check (Alcotest.list Alcotest.int) "words" [ 11; 22 ]
    (Device.Stream_sink.accepted s)

(* ------------------------------------------------------------------ *)
(* DMA                                                                 *)
(* ------------------------------------------------------------------ *)

let test_dma_transfer () =
  let k = K.create () in
  let m = M.create [ M.ram ~name:"ram" ~base:0 ~size:128 ] in
  let ic = Interrupt.create () in
  let dma = Dma.create ~irq:(ic, 0) k (T.tlm k m) () in
  for i = 0 to 7 do
    M.write m (16 + i) (100 + i)
  done;
  K.spawn k (fun () ->
      check Alcotest.bool "started" true
        (Dma.start dma ~src:16 ~dst:64 ~len:8 = Dma.Started));
  ignore (K.run ~bound:K.Quiesce k);
  for i = 0 to 7 do
    check Alcotest.int (Printf.sprintf "moved %d" i) (100 + i)
      (M.read m (64 + i))
  done;
  check Alcotest.int "words" 8 (Dma.words_moved dma);
  check Alcotest.int "transfers" 1 (Dma.transfers_completed dma);
  check Alcotest.bool "irq" true (Interrupt.pending ic land 1 = 1);
  check Alcotest.bool "idle" false (Dma.busy dma)

let test_dma_register_window () =
  let k = K.create () in
  let ram = M.ram ~name:"ram" ~base:0 ~size:64 in
  (* the DMA's own registers live on the same map it masters *)
  let map_ref = ref (M.create [ ram ]) in
  let bus =
    {
      (T.driver ~call_cost:1 !map_ref) with
      T.read = (fun a -> K.wait 1; M.read !map_ref a);
      write = (fun a v -> K.wait 1; M.write !map_ref a v);
    }
  in
  let dma = Dma.create k bus () in
  map_ref := M.create [ ram; Dma.region ~name:"dma" ~base:1000 dma ];
  let m = !map_ref in
  M.write m 5 42;
  K.spawn k (fun () ->
      M.write m 1000 5;
      (* src *)
      M.write m 1001 20;
      (* dst *)
      M.write m 1002 1;
      (* len *)
      M.write m 1003 1;
      (* go *)
      ignore (Codesign_sim.Signal.create k 0);
      K.wait 10;
      check Alcotest.int "done flag" 1 (M.read m 1004);
      M.write m 1004 0;
      check Alcotest.int "cleared" 0 (M.read m 1004));
  ignore (K.run ~bound:K.Quiesce k);
  check Alcotest.int "moved" 42 (M.read m 20)

let test_dma_busy_queues () =
  let k = K.create () in
  let m = M.create [ M.ram ~name:"ram" ~base:0 ~size:128 ] in
  for i = 0 to 7 do
    M.write m i (i + 1)
  done;
  let dma = Dma.create k (T.tlm k m) () in
  let accepted = ref 0 in
  K.spawn k (fun () ->
      check Alcotest.bool "negative len rejected" true
        (match Dma.start dma ~src:0 ~dst:32 ~len:(-1) with
        | Dma.Rejected _ -> true
        | _ -> false);
      check Alcotest.bool "first starts" true
        (Dma.start dma ~src:0 ~dst:32 ~len:8 = Dma.Started);
      incr accepted;
      (* engine busy: further descriptors queue until the depth-4 job
         channel fills, then get a typed rejection — never an exception *)
      let rejected = ref false in
      for d = 0 to 5 do
        if not !rejected then
          match Dma.start dma ~src:0 ~dst:(40 + (8 * !accepted)) ~len:8 with
          | Dma.Queued -> incr accepted
          | Dma.Rejected _ -> rejected := true
          | Dma.Started ->
              fail (Printf.sprintf "descriptor %d started on busy engine" d)
      done;
      check Alcotest.bool "queue eventually fills" true !rejected;
      check Alcotest.bool "some descriptors queued" true (!accepted >= 4));
  ignore (K.run ~bound:K.Quiesce k);
  (* every accepted descriptor — started or queued — completes *)
  check Alcotest.int "transfers" !accepted (Dma.transfers_completed dma);
  check Alcotest.int "words" (8 * !accepted) (Dma.words_moved dma);
  for d = 1 to !accepted - 1 do
    for i = 0 to 7 do
      check Alcotest.int
        (Printf.sprintf "queued copy %d word %d" d i)
        (i + 1)
        (M.read m (40 + (8 * d) + i))
    done
  done;
  check Alcotest.bool "idle after drain" false (Dma.busy dma)

(* ------------------------------------------------------------------ *)
(* Interface synthesis                                                 *)
(* ------------------------------------------------------------------ *)

let mmio_base = 0x10000

(* One CPU + TLM bus + sensor/sink devices; returns after running the
   given entry program (built by Interface_synth.program). *)
let run_embedded ?(irq_mode = false) ~entry () =
  let k = K.create () in
  let ic = Interrupt.create () in
  let src_irq = if irq_mode then Some (ic, 0) else None in
  let src =
    Device.Stream_src.create ?irq:src_irq ~depth:4 ~period:60 ~count:4
      ~gen:(fun i -> (i * 3) + 1)
      k ()
  in
  let sink = Device.Stream_sink.create ~period:25 k () in
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
  let cpu_ref = ref None in
  let env =
    {
      Cpu.default_env with
      Cpu.mem_read =
        (fun a -> if a >= mmio_base then Some (bus.T.read a) else None);
      mem_write =
        (fun a v ->
          if a >= mmio_base then begin
            bus.T.write a v;
            true
          end
          else false);
    }
  in
  let cpu = Cpu.create ~env img.Asm.code in
  cpu_ref := Some cpu;
  Interrupt.on_change ic (fun level -> Cpu.set_irq cpu level);
  K.spawn ~name:"cpu" k (fun () ->
      let fuel = ref 200_000 in
      while Cpu.status cpu = Cpu.Running && !fuel > 0 do
        let cy = Cpu.step cpu in
        decr fuel;
        if cy > 0 then K.wait cy
      done);
  let stats = K.run ~bound:K.Quiesce k in
  (cpu, sink, src, stats)

let echo_spec ~irq_mode =
  {
    Interface_synth.dname = "io";
    base = 0x10000;
    addr_bits = 20;
    ports =
      [
        {
          Interface_synth.pname = "sensor";
          direction = Interface_synth.In_port;
          data_offset = 1;
          status_offset = Some 0;
          mode =
            (if irq_mode then Interface_synth.Irq_driven 0
             else Interface_synth.Polled);
        };
        {
          Interface_synth.pname = "tx";
          direction = Interface_synth.Out_port;
          data_offset = 0x11;
          status_offset = Some 0x10;
          mode = Interface_synth.Polled;
        };
      ];
  }

let echo_entry =
  (* read 4 words from the sensor, forward each to the sink *)
  [
    Asm.Ins (I.Li (10, 4));
    Asm.Label "echo_loop";
    Asm.Ins (I.Jal (31, "io_sensor_read"));
    Asm.Ins (I.Jal (31, "io_tx_write"));
    Asm.Ins (I.Alui (I.Sub, 10, 10, 1));
    Asm.Ins (I.B (I.Ne, 10, 0, "echo_loop"));
    Asm.Ins I.Halt;
  ]

let test_interface_synth_polled_end_to_end () =
  let driver, glue = Interface_synth.synthesize (echo_spec ~irq_mode:false) in
  check Alcotest.int "two routines" 2 (List.length driver.Interface_synth.routines);
  check Alcotest.bool "no isr" true (driver.Interface_synth.isr = None);
  check Alcotest.bool "glue has gates" true
    (glue.Interface_synth.gate_count > 10);
  let entry = Interface_synth.program ~entry:echo_entry driver in
  let cpu, sink, _src, _ = run_embedded ~entry () in
  check Alcotest.bool "halted" true (Cpu.status cpu = Cpu.Halted);
  check (Alcotest.list Alcotest.int) "echoed" [ 1; 4; 7; 10 ]
    (Device.Stream_sink.accepted sink)

let test_interface_synth_irq_end_to_end () =
  let driver, glue = Interface_synth.synthesize (echo_spec ~irq_mode:true) in
  check Alcotest.bool "has isr" true (driver.Interface_synth.isr <> None);
  check Alcotest.int "sync flops" 2 glue.Interface_synth.sync_flops;
  let entry = Interface_synth.program ~entry:echo_entry driver in
  let cpu, sink, _src, _ = run_embedded ~irq_mode:true ~entry () in
  check Alcotest.bool "halted" true (Cpu.status cpu = Cpu.Halted);
  check (Alcotest.list Alcotest.int) "echoed via irq" [ 1; 4; 7; 10 ]
    (Device.Stream_sink.accepted sink)

let test_interface_synth_validation () =
  let bad_port =
    {
      Interface_synth.pname = "p";
      direction = Interface_synth.In_port;
      data_offset = 0;
      status_offset = None;
      mode = Interface_synth.Polled;
    }
  in
  (try
     ignore
       (Interface_synth.synthesize
          { Interface_synth.dname = "d"; base = 0; addr_bits = 8;
            ports = [ bad_port ] });
     fail "polled without status"
   with Invalid_argument _ -> ());
  try
    ignore
      (Interface_synth.synthesize
         {
           Interface_synth.dname = "d";
           base = 0;
           addr_bits = 8;
           ports =
             [
               { bad_port with status_offset = Some 1;
                 mode = Interface_synth.Irq_driven 99 };
             ];
         });
    fail "irq line range"
  with Invalid_argument _ -> ()

let test_interface_synth_glue_decodes () =
  (* the generated decoder actually selects the right addresses *)
  let _, glue = Interface_synth.synthesize (echo_spec ~irq_mode:false) in
  let sim = Codesign_rtl.Logic_sim.create glue.Interface_synth.netlist in
  let drive addr =
    for i = 0 to 19 do
      Codesign_rtl.Logic_sim.set_input sim (Printf.sprintf "a%d" i)
        ((addr lsr i) land 1)
    done;
    Codesign_rtl.Logic_sim.eval sim
  in
  drive 0x10001;
  check Alcotest.int "dev_sel hit" 1
    (Codesign_rtl.Logic_sim.output sim "dev_sel");
  check Alcotest.int "sensor sel" 1
    (Codesign_rtl.Logic_sim.output sim "sel_sensor");
  drive 0x20001;
  check Alcotest.int "dev_sel miss" 0
    (Codesign_rtl.Logic_sim.output sim "dev_sel")

let test_driver_code_size () =
  let driver, _ = Interface_synth.synthesize (echo_spec ~irq_mode:false) in
  let driver_irq, _ = Interface_synth.synthesize (echo_spec ~irq_mode:true) in
  check Alcotest.bool "irq driver bigger (isr)" true
    (driver_irq.Interface_synth.code_bytes
    > driver.Interface_synth.code_bytes)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "codesign_bus"
    [
      ( "memory_map",
        [
          Alcotest.test_case "decode/read/write" `Quick test_map_decode;
          Alcotest.test_case "overlap rejected" `Quick test_map_overlap;
          Alcotest.test_case "device handlers" `Quick test_map_device;
        ] );
      ( "bus",
        [
          Alcotest.test_case "tlm read/write" `Quick test_tlm_read_write;
          Alcotest.test_case "tlm arbitration" `Quick test_tlm_arbitration;
          Alcotest.test_case "pin functional" `Quick
            test_pin_matches_tlm_functionally;
          Alcotest.test_case "pin wait states" `Quick
            test_pin_sees_wait_states_tlm_does_not;
          Alcotest.test_case "pin event cost" `Quick
            test_pin_generates_more_events;
        ] );
      ( "interrupt",
        [
          Alcotest.test_case "basic" `Quick test_intc_basic;
          Alcotest.test_case "mask" `Quick test_intc_mask;
          Alcotest.test_case "on_change" `Quick test_intc_on_change;
          Alcotest.test_case "register window" `Quick test_intc_region;
          Alcotest.test_case "errors" `Quick test_intc_errors;
        ] );
      ( "devices",
        [
          Alcotest.test_case "gpio" `Quick test_gpio;
          Alcotest.test_case "timer" `Quick test_timer;
          Alcotest.test_case "timer restart" `Quick
            test_timer_restart_cancels;
          Alcotest.test_case "stream src" `Quick test_stream_src;
          Alcotest.test_case "stream src overrun" `Quick
            test_stream_src_overrun;
          Alcotest.test_case "stream sink" `Quick test_stream_sink;
        ] );
      ( "dma",
        [
          Alcotest.test_case "transfer" `Quick test_dma_transfer;
          Alcotest.test_case "register window" `Quick
            test_dma_register_window;
          Alcotest.test_case "busy queues then rejects" `Quick
            test_dma_busy_queues;
        ] );
      ( "interface_synth",
        [
          Alcotest.test_case "polled end-to-end" `Quick
            test_interface_synth_polled_end_to_end;
          Alcotest.test_case "irq end-to-end" `Quick
            test_interface_synth_irq_end_to_end;
          Alcotest.test_case "validation" `Quick
            test_interface_synth_validation;
          Alcotest.test_case "glue decodes" `Quick
            test_interface_synth_glue_decodes;
          Alcotest.test_case "driver code size" `Quick test_driver_code_size;
        ] );
    ]
