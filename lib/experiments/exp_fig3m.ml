(** EXP-3M — paper Fig. 3 / §3.1: the {e mixed}-level grid.

    The paper's point about the interface-abstraction hierarchy is not
    only that a whole system can be simulated at any one rung, but that
    a real co-simulator assigns a level {e per component} to trade
    accuracy against speed where it matters.  This experiment sweeps
    every per-component assignment of the echo system —
    source-interface × software-model × sink-interface, 4³ = 64 grid
    points — and groups them by ladder position (the sum of the three
    component ranks, 0 = all-pin .. 9 = all-message).

    The claims the table demonstrates: the functional checksum never
    moves anywhere on the grid; mean simulation cost (kernel events)
    falls monotonically with ladder position, interpolating between the
    pure-pin and pure-message corners; and bus operations vanish exactly
    when both interfaces reach the message rung.  Within one position
    the spread (min..max) is wide — which component is abstracted
    matters as much as how many, the software model dominating — and
    that per-component choice is precisely what a fixed single-level
    simulator cannot express. *)

open Codesign

let levels = [ Cosim.Pin; Cosim.Transaction; Cosim.Driver; Cosim.Message ]

let grid () =
  List.concat_map
    (fun src ->
      List.concat_map
        (fun cpu -> List.map (fun sink -> { Cosim.src; cpu; sink }) levels)
        levels)
    levels

(* The 64 grid points are independent co-simulations (each builds its
   own kernel and media), so the sweep fans out over the shared
   {!Codesign_par.Domain_pool}; results merge by grid index, making the
   table a pure function of (items, work) at every [jobs]. *)
let run_grid ?(jobs = 1) ~items ~work () =
  let points = Array.of_list (grid ()) in
  Codesign_par.Domain_pool.map ~jobs
    ~name:(fun i -> Cosim.assignment_name points.(i))
    (fun a -> (a, Cosim.run_echo_assignment ~levels:a ~items ~work ()))
    points
  |> Array.to_list

let params ~quick = if quick then (8, 4) else (32, 12)

let run ?(quick = false) ?(jobs = 1) () =
  let items, work = params ~quick in
  let all = run_grid ~jobs ~items ~work () in
  let positions = List.init 10 (fun p -> p) in
  let rows =
    List.map
      (fun p ->
        let ms =
          List.filter_map
            (fun (a, m) ->
              if Cosim.ladder_position a = p then Some m else None)
            all
        in
        let n = List.length ms in
        let events = List.map (fun m -> m.Cosim.events) ms in
        let min_e = List.fold_left min max_int events in
        let max_e = List.fold_left max 0 events in
        let mean_e = List.fold_left ( + ) 0 events / n in
        let mean_bus =
          List.fold_left (fun acc m -> acc + m.Cosim.bus_ops) 0 ms / n
        in
        let checksums =
          List.sort_uniq compare (List.map (fun m -> m.Cosim.checksum) ms)
        in
        [
          string_of_int p;
          string_of_int n;
          Report.fi min_e;
          Report.fi mean_e;
          Report.fi max_e;
          Report.fi mean_bus;
          (match checksums with
          | [ c ] -> Report.fi c
          | _ -> "DISAGREE");
        ])
      positions
  in
  Report.table
    ~title:
      (Printf.sprintf
         "EXP-3M (Fig. 3 / SS3.1): mixed-level grid, 64 src:cpu:sink \
          assignments (%d items, work %d)"
         items work)
    ~headers:
      [ "ladder pos"; "n"; "events min"; "events mean"; "events max";
        "bus ops mean"; "checksum" ]
    rows

(* invariants asserted by the test suite *)
let shape_holds ?(quick = true) () =
  let items, work = params ~quick in
  let all = run_grid ~items ~work () in
  let pin = List.assoc (Cosim.pure Cosim.Pin) all in
  let completed =
    List.for_all (fun (_, m) -> m.Cosim.outcome = Cosim.Completed) all
  in
  let checksum_constant =
    List.for_all (fun (_, m) -> m.Cosim.checksum = pin.Cosim.checksum) all
  in
  let bus_ops_consistent =
    List.for_all
      (fun (a, m) ->
        (m.Cosim.bus_ops = 0)
        = (a.Cosim.src = Cosim.Message && a.Cosim.sink = Cosim.Message))
      all
  in
  (* mean kernel-event cost is monotone in the ladder position *)
  let mean_events p =
    let es =
      List.filter_map
        (fun (a, m) ->
          if Cosim.ladder_position a = p then Some m.Cosim.events else None)
        all
    in
    List.fold_left ( + ) 0 es / List.length es
  in
  let means = List.init 10 mean_events in
  let rec non_increasing = function
    | a :: (b :: _ as rest) -> a >= b && non_increasing rest
    | _ -> true
  in
  (* a direct rerun of each pure-diagonal point reproduces the grid
     exactly *)
  let pure_identical =
    List.for_all
      (fun level ->
        let levels = Cosim.pure level in
        List.assoc levels all
        = Cosim.run_echo_assignment ~levels ~items ~work ())
      levels
  in
  completed && checksum_constant && bus_ops_consistent
  && non_increasing means && pure_identical
