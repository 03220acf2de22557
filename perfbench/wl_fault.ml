(* fault: fault-injection campaigns, one per op
   ([Campaign.run ~seed ~ops]).  Each campaign builds many small
   simulation worlds — warm-up, snapshot, then one fork per fault rate —
   over a faulty bus, ARQ channels and the supervisor, then runs the
   site drills.  This uses the kernel through many short runs rather
   than one long one.  The windowed op count is drawn from 96-480,
   which also varies how much warm-up the forks share; each block of
   eight campaigns draws one count from each eighth of that range, so
   every block, and every round of four blocks, has the same spread. *)

module Rng = Codesign_ir.Rng
module Json = Codesign_obs.Json
module Fault_report = Codesign_obs.Fault_report
module Campaign = Codesign_fault.Campaign
open Workload

let per_round = 32
let strata = 8
let min_ops = 96
let stratum_width = 48

let campaign_op ~seed ~ops =
  op ~label:"Campaign.run" ~layer:"fault" ~kind:"campaign"
    ~replay:(fun tr ->
      ignore
        (Trace.with_span tr ~name:"Campaign.sweep" ~cat:"fault" (fun () ->
             Campaign.sweep ~seed ~ops Campaign.Fork));
      [])
    (fun () ->
      let r = Campaign.run ~seed ~ops () in
      fun () ->
        let cells = r.Fault_report.cells in
        let expected_cells =
          List.length Campaign.mechanisms * (1 + List.length Campaign.default_rates)
        in
        let degraded =
          List.length (List.filter (fun c -> c.Fault_report.degraded <> None) cells)
        in
        let bad_cell =
          List.find_opt
            (fun (c : Fault_report.cell) ->
              c.Fault_report.ops <> ops
              || c.Fault_report.recovered_ops > c.Fault_report.faulted_ops
              || c.Fault_report.recovery_rate < 0. || c.Fault_report.recovery_rate > 1.
              || (c.Fault_report.rate = 0.
                 && (c.Fault_report.injected <> 0 || not c.Fault_report.checksum_ok)))
            cells
        in
        let error =
          (if List.length cells <> expected_cells then
             Some (Printf.sprintf "campaign %d: %d cells" seed (List.length cells))
           else None)
          <|> (fun () ->
          Option.map
            (fun (c : Fault_report.cell) ->
              Printf.sprintf "campaign %d: implausible %s cell at rate %g" seed
                c.Fault_report.mechanism c.Fault_report.rate)
            bad_cell)
          <|> fun () ->
          if r.Fault_report.drills = [] then Some "campaign ran no drills" else None
        in
        check
          ~counts:
            [ ("fault.cells", List.length cells); ("fault.degraded_cells", degraded) ]
          (Json.to_string (Fault_report.to_json r))
          error)

let round ~seed r =
  let rng = rng ~seed r in
  List.concat
    (List.init (per_round / strata) (fun b ->
         let order = Array.init strata Fun.id in
         Rng.shuffle rng order;
         List.init strata (fun i ->
             let ops =
               min_ops + (stratum_width * order.(i)) + Rng.int rng stratum_width
             in
             let i = (r * per_round) + (b * strata) + i in
             campaign_op ~seed:((seed * 1_000_003) + i) ~ops)))

let layers spans ~counts =
  let count k = float_of_int (Option.value (List.assoc_opt k counts) ~default:0) in
  let sweep = replayed "Campaign.sweep" spans in
  [
    ("fault.sweep_s", sweep);
    ("fault.drills_s", busy spans -. sweep);
    ("fault.cells", count "fault.cells");
    ("fault.degraded_cells", count "fault.degraded_cells");
  ]

let make ~seed =
  { round = round ~seed; prefix_rounds = 8; smoke_ops = 4; layers }
