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
    F.Campaign.sweep ~seed:42 ~ops:8 ~warmup:4100 engine
  in
  let fork = sweep F.Campaign.Fork in
  List.iter
    (fun (c : FR.cell) ->
      check Alcotest.bool
        (Printf.sprintf "%s at rate %g completes" c.FR.mechanism c.FR.rate)
        true (c.FR.degraded = None))
    fork;
  check Alcotest.bool "fork = rerun" true (fork = sweep F.Campaign.Rerun)

(* A cell is complete once its master finishes inside the fuel window,
   even while an inert event (the stopped watchdog's pending expiry, an
   ARQ timer) is still queued past the window.  At 1000 cycles per
   window, token at rate 0.05 (done at cycle 1,248, 40 cycles before
   its window ends) reads exactly its default-fuel row; every cell that
   finishes later stays degraded. *)
let test_master_finish_completes_cell () =
  let sweep ?cell_fuel () =
    F.Campaign.sweep ~ops:F.Campaign.quick_ops ?cell_fuel F.Campaign.Fork
  in
  let full = sweep () and tight = sweep ~cell_fuel:1000 () in
  let token =
    List.find
      (fun (c : FR.cell) -> c.FR.mechanism = "token" && c.FR.rate = 0.05)
      full
  in
  check Alcotest.int "token at 0.05 finishes at cycle 1248" 1248
    token.FR.sim_cycles;
  List.iter2
    (fun (f : FR.cell) (t : FR.cell) ->
      let what = Printf.sprintf "%s at rate %g" f.FR.mechanism f.FR.rate in
      if f.FR.sim_cycles <= token.FR.sim_cycles then
        check Alcotest.bool (what ^ ": the default-fuel row") true (t = f)
      else
        check Alcotest.bool (what ^ ": finishes past its window, degraded")
          true (t.FR.degraded <> None))
    full tight

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

(* The production watchdog keeps one pending expiry event; the
   reference queues a fresh timer per kick and lets the superseded ones
   fire as no-ops.  Both run the same scripts and must bite on the same
   cycles, in the same place among same-time events. *)
module type WATCHDOG = sig
  type t
  type snap

  val create : K.t -> timeout:int -> on_bite:(t -> unit) -> t
  val kick : t -> unit
  val stop : t -> unit
  val bites : t -> int
  val snapshot : t -> snap
  val restore : t -> snap -> unit
end

let watchdogs : (string * (module WATCHDOG)) list =
  [
    ("one pending event", (module F.Watchdog));
    ("stale-timer reference", (module Codesign_reference.Stale_watchdog));
  ]

let test_watchdog_tie_keeps_kick_order () =
  (* the bite of the kick at 10 ties with a callback pushed at 20 for
     the same cycle: the kick came first, so the bite fires first, even
     though the one pending event is re-queued for 810 only at 800 *)
  List.iter
    (fun (name, (module W : WATCHDOG)) ->
      let k = K.create () in
      let log = ref [] in
      let note tag = log := Printf.sprintf "%d:%s" (K.now k) tag :: !log in
      let wd = W.create k ~timeout:800 ~on_bite:(fun _ -> note "bite") in
      K.spawn ~name:"kicker" k (fun () ->
          W.kick wd;
          K.wait 10;
          W.kick wd;
          K.wait 10;
          K.at k ~time:810 (fun () -> note "other"));
      ignore (K.run k);
      check
        Alcotest.(list string)
        name [ "810:bite"; "810:other" ] (List.rev !log))
    watchdogs

(* A watchdog script: phases, each one process running its actions,
   then run to a bound past the process's last wait, so that the phase
   ends with no process alive and only bare callbacks (the watchdog's
   expiry events and the [At] callbacks) queued; there the kernel and
   the watchdog are snapshotted or restored together. *)
type wd_target = Near_deadline of int | Ahead of int

type wd_action =
  | Kick
  | Wait of int
  | Stop
  | At of { target : wd_target; kicks : bool }

type wd_checkpoint = Keep | Snap | Restore

type wd_phase = {
  actions : wd_action list;
  tail : int;  (** cycles the phase runs past its last wait *)
  checkpoint : wd_checkpoint;
}

type wd_script = { timeout : int; rearm : bool; phases : wd_phase list }

let show_wd_action = function
  | Kick -> "kick"
  | Wait d -> Printf.sprintf "wait %d" d
  | Stop -> "stop"
  | At { target; kicks } ->
      Printf.sprintf "at %s%s"
        (match target with
        | Near_deadline o -> Printf.sprintf "deadline%+d" o
        | Ahead d -> Printf.sprintf "+%d" d)
        (if kicks then " (kicks)" else "")

let show_wd_script s =
  Printf.sprintf "timeout=%d rearm=%b\n%s" s.timeout s.rearm
    (String.concat "\n"
       (List.map
          (fun p ->
            Printf.sprintf "[%s] tail=%d %s"
              (String.concat "; " (List.map show_wd_action p.actions))
              p.tail
              (match p.checkpoint with
              | Keep -> "-"
              | Snap -> "snap"
              | Restore -> "restore"))
          s.phases))

let gen_wd_script =
  let open QCheck.Gen in
  let action timeout =
    frequency
      [
        (4, return Kick);
        ( 5,
          map
            (fun d -> Wait d)
            (frequency
               [
                 (3, int_range 0 5);
                 (2, int_range 0 (timeout + 2));
                 (1, int_range 0 60);
               ]) );
        (1, return Stop);
        ( 3,
          map2
            (fun target kicks -> At { target; kicks })
            (frequency
               [
                 (3, map (fun o -> Near_deadline o) (int_range (-1) 1));
                 (1, map (fun d -> Ahead d) (int_range 0 60));
               ])
            (frequency [ (4, return false); (1, return true) ]) );
      ]
  in
  let phase timeout =
    map3
      (fun actions tail checkpoint -> { actions; tail; checkpoint })
      (list_size (int_range 0 12) (action timeout))
      (int_range 0 (2 * timeout))
      (frequency [ (2, return Keep); (1, return Snap); (1, return Restore) ])
  in
  int_range 1 30 >>= fun timeout ->
  map2
    (fun rearm phases -> { timeout; rearm; phases })
    bool
    (list_size (int_range 1 4) (phase timeout))

(* The [(time, label)] log of every bite and callback, the bite count
   and the process activations; then the events dispatched and
   scheduled, which the one pending event may only make fewer. *)
let run_wd_script (module W : WATCHDOG) s =
  let k = K.create () in
  let log = ref [] in
  let note tag = log := (K.now k, tag) :: !log in
  let last_kick = ref 0 in
  let kick wd =
    last_kick := K.now k;
    W.kick wd
  in
  let wd =
    W.create k ~timeout:s.timeout ~on_bite:(fun wd ->
        note "bite";
        if s.rearm && W.bites wd < 3 then kick wd)
  in
  let saved = ref None in
  List.iteri
    (fun i phase ->
      K.spawn ~name:"script" k (fun () ->
          List.iteri
            (fun j a ->
              match a with
              | Kick -> kick wd
              | Wait d -> K.wait d
              | Stop -> W.stop wd
              | At { target; kicks } ->
                  let time =
                    match target with
                    | Near_deadline o ->
                        max (K.now k) (!last_kick + s.timeout + o)
                    | Ahead d -> K.now k + d
                  in
                  let tag = Printf.sprintf "%d.%d" i j in
                  K.at k ~time (fun () ->
                      note tag;
                      if kicks then kick wd))
            phase.actions);
      let span =
        List.fold_left
          (fun acc a -> match a with Wait d -> acc + d | _ -> acc)
          0 phase.actions
      in
      ignore (K.run ~bound:(K.Until (K.now k + span + phase.tail)) k);
      match phase.checkpoint with
      | Keep -> ()
      | Snap -> saved := Some (K.snapshot k, W.snapshot wd, !last_kick)
      | Restore -> (
          match !saved with
          | None -> ()
          | Some (ks, ws, lk) ->
              K.restore k ks;
              W.restore wd ws;
              last_kick := lk))
    s.phases;
  let st = K.run ~bound:K.Quiesce k in
  ((List.rev !log, W.bites wd, st.K.activations), (st.K.events, st.K.scheduled))

let prop_watchdog_matches_reference =
  QCheck.Test.make ~name:"one pending event = stale-timer reference"
    ~count:1000
    (QCheck.make ~print:show_wd_script gen_wd_script)
    (fun s ->
      let run (_, wd) = run_wd_script wd s in
      match List.map run watchdogs with
      | [ (got, (events, scheduled)); (want, (events', scheduled')) ] ->
          (got = want && events <= events' && scheduled <= scheduled')
          ||
          let show (log, bites, activations) (events, scheduled) =
            Printf.sprintf
              "%s; bites %d; activations %d; events %d; scheduled %d"
              (String.concat " "
                 (List.map (fun (t, l) -> Printf.sprintf "%d:%s" t l) log))
              bites activations events scheduled
          in
          QCheck.Test.fail_reportf "got  %s\nwant %s"
            (show got (events, scheduled))
            (show want (events', scheduled'))
      | _ -> false)

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
  (* backoff (128 cycles/attempt, growing) outlives a 600-cycle
     stuck-at window within three retries: every fault is transient
     relative to the retry budget, and recovery must therefore be
     total *)
  let inj = F.Injector.create ~rate:0.15 ~seed:5 () in
  let map = M.create [ M.ram ~name:"ram" ~base:0 ~size:256 ] in
  let fb =
    F.Faulty_bus.create k inj (Codesign_bus.Transport.tlm k map)
  in
  let budget = 6 and backoff = 128 in
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
(* Tags                                                                *)
(* ------------------------------------------------------------------ *)

(* The tag formulas as text, the form the string-free tags must keep
   reproducing bit for bit.  Both ends of a link compute a tag the same
   way, so a drifted tag (say, one that loses the '-' of the END frame's
   idx -1) would still agree with itself; only this comparison sees it. *)
module Text_tags = struct
  let low24 h = Int64.to_int (Int64.logand h 0xFFFFFFL)

  let frame ~seq ~idx ~v ~last =
    low24
      (Codesign_obs.Checksum.fnv1a64
         (string_of_int seq ^ ":" ^ string_of_int idx ^ ":" ^ string_of_int v
        ^ ":" ^ string_of_bool last))

  let ack seq =
    low24 (Codesign_obs.Checksum.fnv1a64 ("ack:" ^ string_of_int seq))

  let bus v = Codesign_obs.Checksum.fnv1a64 (string_of_int v)
end

let prop_tags_match_text =
  let open QCheck in
  let any_int = Gen.(map2 (fun n k -> n asr k) int (int_range 0 62)) in
  (* idx -1 is the END frame's; campaign words fit in 10 bits *)
  let idx =
    Gen.(
      frequency [ (1, return (-1)); (3, int_range (-2) 5000); (1, any_int) ])
  in
  let v = Gen.(frequency [ (3, int_range (-1024) 1024); (1, any_int) ]) in
  let seq = Gen.(frequency [ (3, int_range 0 100_000); (1, any_int) ]) in
  Test.make ~name:"frame, ack and bus tags = the hash of their text"
    ~count:2000
    (make
       ~print:(fun (seq, idx, v, last) ->
         Printf.sprintf "seq=%d idx=%d v=%d last=%b" seq idx v last)
       Gen.(quad seq idx v bool))
    (fun (seq, idx, v, last) ->
      F.Faulty_chan.tag_of ~seq ~idx ~v ~last
      = Text_tags.frame ~seq ~idx ~v ~last
      && F.Faulty_chan.ack_tag seq = Text_tags.ack seq
      && F.Faulty_bus.tag_of v = Text_tags.bus v)

let test_end_frame_tag () =
  check Alcotest.int "END frame (idx -1)"
    (Text_tags.frame ~seq:480 ~idx:(-1) ~v:0 ~last:true)
    (F.Faulty_chan.tag_of ~seq:480 ~idx:(-1) ~v:0 ~last:true)

(* The audit compares the sink with the source word by word, so a cell
   is intact exactly when it lost nothing. *)
let test_checksum_ok_is_no_loss () =
  let r = F.Campaign.run ~seed:7 ~ops:F.Campaign.quick_ops () in
  check Alcotest.bool "some cell lost words" true
    (List.exists (fun c -> c.FR.lost_ops > 0) r.FR.cells);
  List.iter
    (fun (c : FR.cell) ->
      check Alcotest.bool
        (Printf.sprintf "%s @ %g" c.FR.mechanism c.FR.rate)
        (c.FR.lost_ops = 0) c.FR.checksum_ok)
    r.FR.cells

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
          Alcotest.test_case "master's finish completes a cell" `Quick
            test_master_finish_completes_cell;
          Alcotest.test_case "injector stream" `Quick
            test_injector_stream_deterministic;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "one bite per hang" `Quick
            test_watchdog_one_bite_per_hang;
          Alcotest.test_case "kicks defer the bite" `Quick
            test_watchdog_kick_defers_bite;
          Alcotest.test_case "a tied bite keeps its kick's order" `Quick
            test_watchdog_tie_keeps_kick_order;
          QCheck_alcotest.to_alcotest prop_watchdog_matches_reference;
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
      ( "tags",
        [
          QCheck_alcotest.to_alcotest prop_tags_match_text;
          Alcotest.test_case "END frame tag" `Quick test_end_frame_tag;
          Alcotest.test_case "checksum_ok = no lost word" `Quick
            test_checksum_ok_is_no_loss;
        ] );
    ]
