(* Waveform tracing (paper §3.1): record the pin-level bus wires of a
   small transfer sequence and print the VCD document that any standard
   wave viewer ($dumpvars initial values included) can load.

   Also demonstrates bounded simulation: the same system is advanced in
   fixed time slices with [run ~bound:(Until t)], the co-simulation
   equivalent of a debugger's "run for N cycles" — the kernel clock
   lands exactly on each bound even while future events stay queued.

     dune exec examples/vcd_trace.exe                                   *)

module K = Codesign_sim.Kernel
module S = Codesign_sim.Signal
module Vcd = Codesign_sim.Vcd
module M = Codesign_bus.Memory_map
module Bus = Codesign_bus.Bus

let () =
  let k = K.create () in
  let map = M.create [ M.ram ~name:"ram" ~base:0 ~size:32 ] in
  let bus = Bus.Pin.create k map in
  let vcd = Vcd.create k in
  Vcd.watch vcd ~width:1 (Bus.Pin.req_wire bus);
  Vcd.watch vcd ~width:1 (Bus.Pin.ack_wire bus);
  Vcd.watch vcd ~width:20 (Bus.Pin.addr_wire bus);
  K.spawn ~name:"master" k (fun () ->
      for i = 0 to 3 do
        Bus.Pin.write bus (4 * i) (100 + i);
        K.wait 10
      done;
      for i = 0 to 3 do
        ignore (Bus.Pin.read bus (4 * i));
        K.wait 5
      done);

  (* advance in bounded slices; watchers (daemon processes) never trip
     deadlock detection, and the clock lands exactly on each bound even
     when the remaining work (the idle bus slave) stays queued *)
  for i = 1 to 5 do
    let t = 40 * i in
    let stats = K.run ~bound:(K.Until t) k in
    Printf.printf "after run ~until:%-4d  clock=%-4d  events=%d\n" t
      stats.K.end_time stats.K.events;
    assert (stats.K.end_time = t)
  done;

  print_newline ();
  print_string (Vcd.dump vcd)
