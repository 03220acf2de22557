(* cosim: co-simulation across the Fig. 3 interface levels.

   Every source, CPU and sink level (64 assignments) runs at quantum 1
   and 64.  A group of eight runs — one source/sink pair, all four CPU
   levels, both quanta — shares one drawn design point (items 256-1023,
   transform work 4-15) and must agree on its checksum.  The points are
   stratified over both ranges, so each round sees the same spread of
   run lengths.  Between the echo groups, a 4x8 mesh of 512 items runs
   on one event wheel and on two conservatively synchronised
   partitions, which must agree byte for byte; they carry about half
   the run time.  Two rounds cover all 128 (assignment, quantum)
   pairs.  No partitioner runs here. *)

module Rng = Codesign_ir.Rng
module Cosim = Codesign.Cosim
module Apps = Codesign_workloads.Apps
open Workload

let groups_per_round = 8
let stages = 4
let lanes = 8
let mesh_items = 512
let mesh_work = 8
let levels = [| Cosim.Pin; Cosim.Transaction; Cosim.Driver; Cosim.Message |]

let level_key = function
  | Cosim.Pin -> "pin"
  | Cosim.Transaction -> "tlm"
  | Cosim.Driver -> "driver"
  | Cosim.Message -> "message"

(* The 16 (source, sink) level pairs split into two halves, each with
   every level twice on either side; a round runs one half at all four
   CPU levels and both quanta, so rounds cost alike. *)
let pairs half =
  Array.of_list
    (List.concat_map
       (fun src ->
         List.filter_map
           (fun sink ->
             if (src + sink) mod 2 = half then Some (levels.(src), levels.(sink))
             else None)
           [ 0; 1; 2; 3 ])
       [ 0; 1; 2; 3 ])

(* Work stratum of each group, uncorrelated with its item stratum. *)
let work_stratum = [| 0; 1; 2; 3; 3; 2; 1; 0 |]

let echo_op ~items ~work ~reference levels quantum =
  op ~label:"Cosim.run_echo_assignment" ~layer:"core.cosim"
    ~kind:(Printf.sprintf "echo:%s:q%d" (level_key levels.Cosim.cpu) quantum)
    (fun () ->
      let m = Cosim.run_echo_assignment ~levels ~items ~work ~quantum () in
      fun () ->
        let name = Cosim.assignment_name levels in
        if !reference = None then reference := Some m.Cosim.checksum;
        let msg_only =
          levels.Cosim.src = Cosim.Message && levels.Cosim.sink = Cosim.Message
        in
        let error =
          (match m.Cosim.outcome with
          | Cosim.Completed -> None
          | Cosim.Not_halted r | Cosim.Exhausted r ->
              Some (Printf.sprintf "%s q%d did not complete: %s" name quantum r))
          <|> (fun () ->
          if Some m.Cosim.checksum <> !reference then
            Some
              (Printf.sprintf "%s q%d checksum %d differs from its group's" name
                 quantum m.Cosim.checksum)
          else None)
          <|> fun () ->
          if (m.Cosim.bus_ops = 0) <> msg_only || m.Cosim.events <= 0 then
            Some (Printf.sprintf "%s q%d: implausible bus_ops/events" name quantum)
          else None
        in
        check
          ~counts:
            [
              ("bus.transport.bus_ops", m.Cosim.bus_ops);
              ("core.cosim.sim_cycles", m.Cosim.sim_cycles);
            ]
          (Printf.sprintf "%s q%d items=%d work=%d %d %d %d %d %d" name quantum
             items work m.Cosim.checksum m.Cosim.sim_cycles m.Cosim.events
             m.Cosim.activations m.Cosim.bus_ops)
          error)

let mesh_op ~net ~map ~reference ~partitioned =
  op ~label:"Cosim.run_network" ~layer:"core.cosim"
    ~kind:(if partitioned then "mesh:partitioned" else "mesh:serial")
    (fun () ->
      let r =
        if partitioned then Cosim.run_network ~partition:map net
        else Cosim.run_network net
      in
      fun () ->
        let expected =
          Apps.expected_pipeline_output ~count:mesh_items ~work:mesh_work ~stages
        in
        let outputs =
          List.filter_map
            (fun (_, port, v) -> if port = 1 then Some v else None)
            r.Cosim.port_writes
        in
        let error =
          (if r.Cosim.net_outcome <> Cosim.Net_completed then
             Some "mesh did not complete"
           else None)
          <|> (fun () ->
          if List.length outputs <> lanes || List.exists (( <> ) expected) outputs
          then Some "mesh consumers disagree with the reference output"
          else None)
          <|> fun () ->
          match !reference with
          | None ->
              reference := Some r;
              None
          | Some r0 when r0 = r -> None
          | Some _ -> Some "mesh run differs from the first serial run"
        in
        check
          (Printf.sprintf "mesh %d %d %d %s" r.Cosim.end_time r.Cosim.net_events
             r.Cosim.net_activations
             (String.concat ","
                (List.map
                   (fun (p, port, v) -> Printf.sprintf "%s:%d:%d" p port v)
                   r.Cosim.port_writes)))
          error)

let layers spans ~counts =
  let kind_is p s = p (Trace.arg_str "kind" s) in
  let starts pre = kind_is (String.starts_with ~prefix:pre) in
  let echo_s = busy spans ~pred:(starts "echo:") in
  let mesh_ms part =
    1e3
    *. Stats.median
         (List.filter_map
            (fun s ->
              if is_op s && Trace.arg_str "kind" s = part then Some s.Trace.dur_s
              else None)
            spans)
  in
  let serial = mesh_ms "mesh:serial" and partitioned = mesh_ms "mesh:partitioned" in
  let count k = float_of_int (Option.value (List.assoc_opt k counts) ~default:0) in
  List.map
    (fun l ->
      let k = level_key l in
      ("core.cosim.echo_busy_s." ^ k, busy spans ~pred:(starts ("echo:" ^ k ^ ":"))))
    (Array.to_list levels)
  @ [
      ( "core.cosim.q64_speedup",
        ratio
          (busy spans ~pred:(kind_is (String.ends_with ~suffix:":q1")))
          (busy spans ~pred:(kind_is (String.ends_with ~suffix:":q64"))) );
      ( "core.cosim.sim_mcycles_per_s",
        ratio (count "core.cosim.sim_cycles" /. 1e6) echo_s );
      ("bus.transport.bus_ops", count "bus.transport.bus_ops");
      ("sim.kernel.mesh_serial_ms", serial);
      ("par.pdes.mesh_partitioned_ms", partitioned);
      ("par.pdes.overhead_ratio", ratio partitioned serial);
    ]

let make ~seed =
  let net = Apps.mesh ~stages ~lanes ~count:mesh_items ~work:mesh_work () in
  let map = Apps.mesh_partition ~stages ~lanes ~partitions:2 () in
  let mesh_reference = ref None in
  let group r k =
    let rng = rng ~seed ((r * groups_per_round) + k) in
    let items = 256 + (96 * k) + Rng.int rng 96 in
    let work = 4 + (3 * work_stratum.(k)) + Rng.int rng 3 in
    let src, sink = (pairs (r mod 2)).(k) in
    let reference = ref None in
    List.concat_map
      (fun cpu ->
        List.map (echo_op ~items ~work ~reference { Cosim.src; cpu; sink }) [ 1; 64 ])
      (Array.to_list levels)
  in
  let mesh partitioned = mesh_op ~net ~map ~reference:mesh_reference ~partitioned in
  (* One serial and one partitioned mesh run per round, after the first
     group.  Echo runs stay 97% of the ops, so both percentiles fall
     inside the echo distribution, not on the edge between echo and mesh
     times, where host noise would tip them from one side to the other. *)
  let round r =
    match List.init groups_per_round (group r) with
    | first :: rest -> List.concat ((first @ [ mesh false; mesh true ]) :: rest)
    | [] -> []
  in
  {
    round;
    prefix_rounds = 4;
    smoke_ops = 10;
    layers;
  }
