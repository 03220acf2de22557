(** EXP-3 — paper Fig. 3 / §3.1: the HW/SW interface abstraction ladder.

    The same embedded application (sensor -> software transform -> sink)
    is co-simulated at the four Fig. 3 abstraction levels.  The paper's
    claim: modelling at the pins "is most accurate for evaluating
    performance, but is computationally expensive", while modelling at
    the process/OS level "is much more efficient computationally, but
    may not be useful for evaluating performance".  The table shows the
    monotone trade: kernel events fall by orders of magnitude as the
    abstraction rises, while timing error against the pin-level
    reference grows. *)

open Codesign

let levels = [ Cosim.Pin; Cosim.Transaction; Cosim.Driver; Cosim.Message ]

let echo_ladder ~items ~work =
  List.map
    (fun level ->
      Cosim.run_echo_assignment ~levels:(Cosim.pure level) ~items ~work ())
    levels

let run ?(quick = false) () =
  let items = if quick then 8 else 32 in
  let work = if quick then 4 else 12 in
  let ms = echo_ladder ~items ~work in
  let reference = List.hd ms in
  let rows =
    List.map
      (fun (m : Cosim.metrics) ->
        let err =
          abs_float
            (float_of_int (m.Cosim.sim_cycles - reference.Cosim.sim_cycles)
            /. float_of_int reference.Cosim.sim_cycles)
        in
        [
          Cosim.level_name m.Cosim.level;
          Report.fi m.Cosim.events;
          Report.fi m.Cosim.activations;
          Report.fi m.Cosim.bus_ops;
          Report.fi m.Cosim.sim_cycles;
          Report.fp err;
          Report.fi m.Cosim.checksum;
        ])
      ms
  in
  Report.table
    ~title:
      (Printf.sprintf
         "EXP-3 (Fig. 3 / SS3.1): co-simulation abstraction ladder (%d \
          items, work %d)"
         items work)
    ~headers:
      [ "abstraction"; "events"; "activations"; "bus ops"; "sim cycles";
        "timing err"; "checksum" ]
    rows

(* invariants asserted by the test suite *)
let shape_holds ?(quick = true) () =
  let items = if quick then 8 else 32 in
  let work = if quick then 4 else 12 in
  let ms = echo_ladder ~items ~work in
  match ms with
  | [ pin; tlm; drv; msg ] ->
      List.for_all (fun m -> m.Cosim.outcome = Cosim.Completed) ms
      && pin.Cosim.events > tlm.Cosim.events
      && tlm.Cosim.events >= drv.Cosim.events
      && drv.Cosim.events > msg.Cosim.events
      && pin.Cosim.checksum = msg.Cosim.checksum
  | _ -> false
