(* Fault-injection library tests: determinism of the campaign report,
   watchdog single-bite semantics, TMR masking of any single replica
   fault, bounded retry recovering transient bus faults, and the
   reliable-transport wrapper delivering an intact stream over a lossy
   medium. *)

module K = Codesign_sim.Kernel
module M = Codesign_bus.Memory_map
module Bus = Codesign_bus.Bus
module N = Codesign_rtl.Netlist
module L = Codesign_rtl.Logic_sim
module Json = Codesign_obs.Json
module FR = Codesign_obs.Fault_report
module F = Codesign_fault

let check = Alcotest.check
let fail = Alcotest.fail

(* ------------------------------------------------------------------ *)
(* Determinism                                                         *)
(* ------------------------------------------------------------------ *)

let test_campaign_byte_identical () =
  (* the acceptance bar for the whole library: the campaign is a pure
     function of its seed, down to the serialized byte *)
  let render seed =
    Json.to_string ~pretty:true
      (FR.to_json (F.Campaign.run ~seed ~ops:F.Campaign.quick_ops ()))
  in
  check Alcotest.string "seed 42 replays byte-identically" (render 42)
    (render 42);
  check Alcotest.string "seed 7 replays byte-identically" (render 7) (render 7);
  check Alcotest.bool "different seeds differ" true (render 42 <> render 7)

(* The sink RAM starts right after the source image, so a sweep whose
   warm-up and window pass 4096 words together runs every cell, and the
   two engines still agree. *)
let test_large_image_sweep () =
  let sweep engine =
    F.Campaign.sweep ~seed:42 ~ops:8 ~warmup:4100 ~rates:[ 0.1 ] engine
  in
  let fork = sweep F.Campaign.Fork in
  List.iter
    (fun (c : FR.cell) ->
      check Alcotest.bool
        (Printf.sprintf "%s at rate %g completes" c.FR.mechanism c.FR.rate)
        true (c.FR.degraded = None))
    fork;
  check Alcotest.bool "fork = rerun" true (fork = sweep F.Campaign.Rerun)

let test_injector_stream_deterministic () =
  let draws seed =
    let inj = F.Injector.create ~rate:0.3 ~seed () in
    List.init 200 (fun _ -> F.Injector.fires inj)
  in
  check Alcotest.bool "same seed, same decisions" true (draws 9 = draws 9);
  check Alcotest.bool "decision stream is not constant" true
    (List.exists Fun.id (draws 9) && not (List.for_all Fun.id (draws 9)))

(* ------------------------------------------------------------------ *)
(* Watchdog                                                            *)
(* ------------------------------------------------------------------ *)

let test_watchdog_one_bite_per_hang () =
  let k = K.create () in
  let bite_times = ref [] in
  let wd =
    F.Watchdog.create k ~timeout:100 ~on_bite:(fun _ ->
        bite_times := K.now k :: !bite_times)
  in
  K.spawn ~name:"workload" k (fun () ->
      F.Watchdog.kick wd;
      (* hang 1: silent for 900 cycles — far past the timeout *)
      K.wait 900;
      F.Watchdog.kick wd;
      (* hang 2 *)
      K.wait 900;
      F.Watchdog.stop wd);
  ignore (K.run ~bound:K.Quiesce k);
  (* one bite per hang, however long each hang lasted *)
  check
    Alcotest.(list int)
    "bites at kick+timeout only" [ 100; 1000 ]
    (List.rev !bite_times);
  check Alcotest.int "bite counter" 2 (F.Watchdog.bites wd)

let test_watchdog_kick_defers_bite () =
  let k = K.create () in
  let wd = F.Watchdog.create k ~timeout:50 ~on_bite:(fun _ -> ()) in
  K.spawn ~name:"live" k (fun () ->
      for _ = 1 to 20 do
        F.Watchdog.kick wd;
        K.wait 10
      done;
      F.Watchdog.stop wd);
  ignore (K.run ~bound:K.Quiesce k);
  check Alcotest.int "a live workload is never bitten" 0 (F.Watchdog.bites wd)

(* ------------------------------------------------------------------ *)
(* TMR                                                                 *)
(* ------------------------------------------------------------------ *)

let eval_all n =
  let sim = L.create n in
  Array.init 16 (fun v ->
      List.iteri
        (fun j (nm, _) -> L.set_input sim nm ((v lsr j) land 1))
        n.N.inputs;
      L.eval sim;
      L.output sim "hit")

let test_tmr_masks_any_single_replica_fault () =
  let base = N.decoder ~width:4 ~match_value:9 () in
  let golden = eval_all base in
  let tmr = F.Tmr.triplicate base in
  check Alcotest.bool "tmr is transparent when fault-free" true
    (eval_all tmr = golden);
  let bound = F.Tmr.replica_gates base in
  for g = 0 to bound - 1 do
    List.iter
      (fun value ->
        let out = eval_all (F.Tmr.stuck_at tmr ~gate:g ~value) in
        if out <> golden then
          fail
            (Printf.sprintf "stuck-at-%d on replica gate %d escaped the voter"
               value g))
      [ 0; 1 ]
  done

let test_unprotected_fault_visible () =
  (* sanity for the masking claim: the same faults on the *unprotected*
     netlist are frequently visible, so the TMR sweep is not vacuous *)
  let base = N.decoder ~width:4 ~match_value:9 () in
  let golden = eval_all base in
  let visible = ref 0 in
  List.iteri
    (fun g _ ->
      List.iter
        (fun value ->
          if eval_all (F.Tmr.stuck_at base ~gate:g ~value) <> golden then
            incr visible)
        [ 0; 1 ])
    base.N.gates;
  check Alcotest.bool "most bare faults are observable" true (!visible > 0)

(* ------------------------------------------------------------------ *)
(* Bounded retry over a faulty bus                                     *)
(* ------------------------------------------------------------------ *)

let test_retry_recovers_transient_bus_faults () =
  let k = K.create () in
  (* short stuck-at windows so that backoff (32 cycles/attempt) always
     outlives a persistent fault: every fault is transient relative to
     the retry budget, and recovery must therefore be total *)
  let inj = F.Injector.create ~rate:0.15 ~seed:5 () in
  let map = M.create [ M.ram ~name:"ram" ~base:0 ~size:256 ] in
  let fb =
    F.Faulty_bus.create ~timeout:48 ~stuck_cycles:20 k inj
      (Codesign_bus.Transport.tlm k map)
  in
  let budget = 6 and backoff = 32 in
  let with_retry op =
    let rec go n =
      if n > budget then fail "retry budget exhausted on a transient fault"
      else
        match op () with
        | Ok v -> (v, n)
        | Error _ ->
            K.wait (backoff * (n + 1));
            go (n + 1)
    in
    go 0
  in
  let retried = ref 0 in
  K.spawn ~name:"master" k (fun () ->
      for i = 0 to 63 do
        let (), w = with_retry (fun () -> F.Faulty_bus.write fb i (i * 3)) in
        let v, r = with_retry (fun () -> F.Faulty_bus.read fb i) in
        retried := !retried + w + r;
        check Alcotest.int (Printf.sprintf "word %d survives" i) (i * 3) v
      done);
  ignore (K.run ~bound:(K.Until 2_000_000) k);
  check Alcotest.bool "faults were actually injected" true
    (F.Injector.injected inj > 0);
  check Alcotest.bool "recovery exercised the retry path" true (!retried > 0)

(* ------------------------------------------------------------------ *)
(* Reliable transport over a lossy channel                             *)
(* ------------------------------------------------------------------ *)

let test_transport_delivers_in_order () =
  let k = K.create () in
  let inj = F.Injector.create ~rate:0.12 ~seed:11 () in
  let ch = F.Faulty_chan.create k inj in
  let sent = List.init 40 (fun i -> (i, (i * 7) + 1)) in
  let got = ref [] in
  K.spawn ~name:"rx" k (fun () ->
      let rec loop () =
        match F.Faulty_chan.recv ch with
        | Some (idx, v) ->
            got := (idx, v) :: !got;
            loop ()
        | None -> ()
      in
      loop ());
  K.spawn ~name:"tx" k (fun () ->
      List.iter
        (fun (idx, v) ->
          if not (F.Faulty_chan.send ch ~idx v) then
            fail (Printf.sprintf "frame %d exceeded its retry budget" idx))
        sent;
      F.Faulty_chan.close ch);
  ignore (K.run ~bound:(K.Until 10_000_000) k);
  check
    Alcotest.(list (pair int int))
    "stream delivered intact and in order" sent (List.rev !got);
  check Alcotest.bool "the medium actually misbehaved" true
    (F.Injector.injected inj > 0 && F.Faulty_chan.retransmissions ch > 0)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "codesign_fault"
    [
      ( "determinism",
        [
          Alcotest.test_case "campaign byte-identical" `Quick
            test_campaign_byte_identical;
          Alcotest.test_case "image past 4096 words, fork = rerun" `Quick
            test_large_image_sweep;
          Alcotest.test_case "injector stream" `Quick
            test_injector_stream_deterministic;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "one bite per hang" `Quick
            test_watchdog_one_bite_per_hang;
          Alcotest.test_case "kicks defer the bite" `Quick
            test_watchdog_kick_defers_bite;
        ] );
      ( "tmr",
        [
          Alcotest.test_case "masks any single replica fault" `Quick
            test_tmr_masks_any_single_replica_fault;
          Alcotest.test_case "bare faults visible" `Quick
            test_unprotected_fault_visible;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "retry recovers transient bus faults" `Quick
            test_retry_recovers_transient_bus_faults;
          Alcotest.test_case "transport delivers over lossy medium" `Quick
            test_transport_delivers_in_order;
        ] );
    ]
