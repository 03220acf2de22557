module K = Codesign_sim.Kernel
module Cpu = Codesign_isa.Cpu

let is_running cpu = match Cpu.status cpu with Cpu.Running -> true | _ -> false

let run cpu =
  while is_running cpu do
    let budget = K.in_place_budget () in
    if budget > 0 then begin
      let cycles = Cpu.cycles cpu and instret = Cpu.instret cpu in
      Cpu.run_burst cpu ~cycles:budget;
      let waits = Cpu.instret cpu - instret in
      if waits > 0 then K.count_waits ~waits ~total:(Cpu.cycles cpu - cycles)
    end;
    if is_running cpu then begin
      let cy = Cpu.step cpu in
      if cy > 0 then K.wait cy
    end
  done
