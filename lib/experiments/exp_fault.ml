(** EXP-F — fault-injection campaign (paper §5 comparison criteria).

    The paper's criteria ask how a co-design system behaves when the
    HW/SW interface misbehaves.  {!Codesign_fault.Campaign} answers
    quantitatively: the same transfer workload runs at three Fig. 3
    interface rungs (plus a graceful-degradation ladder) under a seeded
    fault injector, and the table reports what each rung's recovery
    mechanism salvages.  The qualitative claim being measured: pin-level
    fails hard (faults surface only at the end-of-run audit), the
    transaction level recovers transients but loses persistent stuck-at
    windows, and the token/OS level degrades gracefully — at every fault
    rate pin recovers less than tlm, and token at least as much as tlm
    and strictly more wherever tlm loses an op. *)

open Codesign
module Campaign = Codesign_fault.Campaign
module FR = Codesign_obs.Fault_report

let report ?(quick = false) ?(seed = 42) () =
  let ops = if quick then Campaign.quick_ops else Campaign.default_ops in
  Campaign.run ~seed ~ops ()

let render (r : FR.t) =
  let cell_rows =
    List.map
      (fun (c : FR.cell) ->
        [
          c.FR.mechanism;
          Report.ff c.FR.rate;
          Report.fi c.FR.faulted_ops;
          Report.fi c.FR.injected;
          Report.fi c.FR.detected;
          Report.fi c.FR.lost_ops;
          Report.fp c.FR.recovery_rate;
          Report.ff c.FR.mean_detect_latency;
          Report.fp c.FR.cycle_overhead;
          (* a supervision-degraded cell (gave up after its restarts)
             shows dead(attempts); otherwise the graceful-degradation
             ladder label, exactly as before *)
          (match c.FR.degraded with
          | Some d ->
              Printf.sprintf "dead(%d)" d.Codesign_obs.Degraded.attempts
          | None -> (
              match c.FR.degraded_to with Some l -> l | None -> "-"));
        ])
      r.FR.cells
  in
  let sweep =
    Report.table
      ~title:
        (Printf.sprintf
           "EXP-F: fault-injection sweep (%d ops/cell, seed %d)"
           r.FR.ops_per_cell r.FR.seed)
      ~headers:
        [ "mechanism"; "rate"; "faulted"; "injected"; "detected"; "lost";
          "recovery"; "latency"; "overhead"; "degraded" ]
      cell_rows
  in
  let drill_rows =
    List.map
      (fun (d : FR.drill) ->
        [
          d.FR.d_site;
          d.FR.d_mechanism;
          Report.fi d.FR.d_injected;
          Report.fi d.FR.d_detected;
          Report.fi d.FR.d_recovered;
        ])
      r.FR.drills
  in
  let drills =
    Report.table ~title:"EXP-F: site drills"
      ~headers:[ "site"; "mechanism"; "injected"; "detected"; "recovered" ]
      drill_rows
  in
  sweep ^ "\n" ^ drills

let run ?(quick = false) () = render (report ~quick ())

(* The claim every report is held to, at every swept fault rate:
   - pin recovers strictly less than tlm, and its mean detect latency
     is strictly higher;
   - tlm recovers no more than token, and strictly less wherever tlm
     loses an op.  Where tlm loses none, both recover every faulted op:
     a tie at 100% is the best token can do;
   and every rate-0 cell keeps its checksum. *)
let claim_holds (r : FR.t) =
  let cell mechanism rate =
    List.find_opt
      (fun (c : FR.cell) -> c.FR.mechanism = mechanism && c.FR.rate = rate)
      r.FR.cells
  in
  List.for_all
    (fun rate ->
      match (cell "pin" rate, cell "tlm" rate, cell "token" rate) with
      | Some pin, Some tlm, Some token ->
          pin.FR.recovery_rate < tlm.FR.recovery_rate
          && tlm.FR.recovery_rate <= token.FR.recovery_rate
          && (tlm.FR.lost_ops = 0
             || tlm.FR.recovery_rate < token.FR.recovery_rate)
          && pin.FR.mean_detect_latency > tlm.FR.mean_detect_latency
      | _ -> false)
    r.FR.rates
  && List.for_all
       (fun (c : FR.cell) -> c.FR.rate > 0.0 || c.FR.checksum_ok)
       r.FR.cells

let shape_holds ?(quick = false) () = claim_holds (report ~quick ())
