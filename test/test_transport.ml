(* The Fig. 3 transport layer and the mixed-level co-simulation grid.

   The load-bearing suite here is the golden table: the generic
   [Cosim.run_echo_assignment] pipeline replaced four dedicated
   per-level runners, and each pure assignment must reproduce the old
   runner's metrics *exactly* (the values below were captured from the
   pre-refactor implementation).  The mixed-assignment properties then
   pin what the grid claims: checksum constant everywhere, cost
   non-increasing when a component is raised along an axis where the
   abstraction only removes modelled activity. *)

module K = Codesign_sim.Kernel
module Ch = Codesign_sim.Channel
module M = Codesign_bus.Memory_map
module T = Codesign_bus.Transport
module Bus = Codesign_bus.Bus
module Device = Codesign_bus.Device
module Pn = Codesign_ir.Process_network
module B = Codesign_ir.Behavior
open Codesign

let check = Alcotest.check
let fail = Alcotest.fail

(* Bus operations charged to a transport: its reads plus its writes. *)
let ops tr =
  let s = tr.T.stats () in
  s.Bus.reads + s.Bus.writes

(* ------------------------------------------------------------------ *)
(* golden pure-level metrics (captured pre-refactor)                   *)
(* ------------------------------------------------------------------ *)

(* (checksum, sim_cycles, events, activations, bus_ops) per level, for
   four parameter sets *)
let goldens =
  [
    ( "default", (16, 8, 200, 120),
      [
        (Cosim.Pin, (4554, 3550, 2713, 2713, 82));
        (Cosim.Transaction, (4554, 3478, 2222, 2222, 83));
        (Cosim.Driver, (4554, 3544, 2176, 2176, 32));
        (Cosim.Message, (4554, 3472, 421, 421, 0));
      ] );
    ( "quick", (8, 4, 200, 120),
      [
        (Cosim.Pin, (366, 1734, 1369, 1369, 98));
        (Cosim.Transaction, (366, 1726, 798, 798, 107));
        (Cosim.Driver, (366, 1728, 722, 722, 16));
        (Cosim.Message, (366, 1808, 149, 149, 0));
      ] );
    ( "full", (32, 12, 200, 120),
      [
        (Cosim.Pin, (46232, 9582, 7065, 7065, 146));
        (Cosim.Transaction, (46232, 9446, 6190, 6190, 147));
        (Cosim.Driver, (46232, 9576, 6112, 6112, 64));
        (Cosim.Message, (46232, 7976, 1070, 1070, 0));
      ] );
    ( "alt", (5, 3, 90, 170),
      [
        (Cosim.Pin, (124, 924, 747, 747, 56));
        (Cosim.Transaction, (124, 908, 418, 418, 60));
        (Cosim.Driver, (124, 904, 375, 375, 10));
        (Cosim.Message, (124, 1012, 77, 77, 0));
      ] );
  ]

let metrics_tuple (m : Cosim.metrics) =
  (m.Cosim.checksum, m.Cosim.sim_cycles, m.Cosim.events,
   m.Cosim.activations, m.Cosim.bus_ops)

let quint = Alcotest.(pair int (pair int (pair int (pair int int))))
let nest (a, b, c, d, e) = (a, (b, (c, (d, e))))

let test_pure_levels_reproduce_goldens () =
  List.iter
    (fun (tag, (items, work, src_period, sink_period), rows) ->
      List.iter
        (fun (level, expect) ->
          let m =
            Cosim.run_echo_assignment ~levels:(Cosim.pure level) ~items
              ~work ~src_period ~sink_period ()
          in
          check Alcotest.bool
            (tag ^ " " ^ Cosim.level_name level ^ " completed")
            true
            (m.Cosim.outcome = Cosim.Completed);
          check Alcotest.bool
            (tag ^ " " ^ Cosim.level_name level ^ " assignment recorded")
            true
            (m.Cosim.assignment = Cosim.pure level
            && Cosim.is_pure m.Cosim.assignment);
          check quint
            (tag ^ " " ^ Cosim.level_name level ^ " metrics")
            (nest expect)
            (nest (metrics_tuple m)))
        rows)
    goldens

(* ------------------------------------------------------------------ *)
(* mixed-assignment properties                                         *)
(* ------------------------------------------------------------------ *)

let bump = function
  | Cosim.Pin -> Cosim.Transaction
  | Cosim.Transaction -> Cosim.Driver
  | Cosim.Driver -> Cosim.Message
  | Cosim.Message -> Cosim.Message

(* Deterministic sample of the grid x parameter space.  The axes along
   which raising a component must not cost more: src (always), cpu
   (always), sink while it stays on a bus rung — the sink's step onto
   Message swaps a passive device for an active endpoint process and is
   allowed its bounded scheduling cost (checked separately below). *)
let test_mixed_assignments_hold_invariants () =
  let rng = Random.State.make [| 0x3117 |] in
  let levels = [| Cosim.Pin; Cosim.Transaction; Cosim.Driver;
                  Cosim.Message |] in
  for _trial = 1 to 20 do
    let items = 2 + Random.State.int rng 23 in
    let work = 1 + Random.State.int rng 12 in
    let src_period = 80 + Random.State.int rng 321 in
    let sink_period = 40 + Random.State.int rng 161 in
    let run levels =
      Cosim.run_echo_assignment ~levels ~items ~work ~src_period
        ~sink_period ()
    in
    let pick () = levels.(Random.State.int rng 4) in
    let a = { Cosim.src = pick (); cpu = pick (); sink = pick () } in
    let pin = run (Cosim.pure Cosim.Pin) in
    let m = run a in
    let where =
      Printf.sprintf "%s (items=%d work=%d sp=%d kp=%d)"
        (Cosim.assignment_name a) items work src_period sink_period
    in
    check Alcotest.bool (where ^ " completed") true
      (m.Cosim.outcome = Cosim.Completed);
    check Alcotest.int (where ^ " checksum = pure pin")
      pin.Cosim.checksum m.Cosim.checksum;
    check Alcotest.bool (where ^ " bus_ops iff a bus-ish interface") true
      ((m.Cosim.bus_ops = 0)
      = (a.Cosim.src = Cosim.Message && a.Cosim.sink = Cosim.Message));
    let raised =
      (if a.Cosim.src <> Cosim.Message then
         [ { a with Cosim.src = bump a.Cosim.src } ]
       else [])
      @ (if a.Cosim.cpu <> Cosim.Message then
           [ { a with Cosim.cpu = bump a.Cosim.cpu } ]
         else [])
      @
      match a.Cosim.sink with
      | Cosim.Pin | Cosim.Transaction ->
          [ { a with Cosim.sink = bump a.Cosim.sink } ]
      | _ -> []
    in
    List.iter
      (fun a' ->
        let m' = run a' in
        let step = where ^ " -> " ^ Cosim.assignment_name a' in
        check Alcotest.int (step ^ " checksum stable") m.Cosim.checksum
          m'.Cosim.checksum;
        check Alcotest.bool (step ^ " events non-increasing") true
          (m'.Cosim.events <= m.Cosim.events);
        check Alcotest.bool (step ^ " activations non-increasing") true
          (m'.Cosim.activations <= m.Cosim.activations))
      raised
  done

(* The one non-monotone edge: a Message-level sink adds its endpoint
   process's own scheduling, but no more than a few events per item. *)
let test_message_sink_overhead_is_bounded () =
  List.iter
    (fun (items, work) ->
      let run sink =
        Cosim.run_echo_assignment
          ~levels:{ Cosim.src = Cosim.Driver; cpu = Cosim.Driver; sink }
          ~items ~work ()
      in
      let drv = run Cosim.Driver and msg = run Cosim.Message in
      check Alcotest.int "checksum stable across the sink edge"
        drv.Cosim.checksum msg.Cosim.checksum;
      check Alcotest.bool "message sink costs at most ~4 events/item" true
        (msg.Cosim.events <= drv.Cosim.events + (4 * items) + 16))
    [ (8, 4); (16, 8); (32, 12) ]

let test_ladder_position_and_names () =
  check Alcotest.int "all-pin is position 0" 0
    (Cosim.ladder_position (Cosim.pure Cosim.Pin));
  check Alcotest.int "all-message is position 9" 9
    (Cosim.ladder_position (Cosim.pure Cosim.Message));
  let a = { Cosim.src = Cosim.Pin; cpu = Cosim.Transaction;
            sink = Cosim.Message } in
  check Alcotest.string "assignment name" "pin:tlm:message"
    (Cosim.assignment_name a);
  (match Cosim.parse_assignment "pin:tlm:message" with
  | Ok a' -> check Alcotest.bool "parse round-trips" true (a' = a)
  | Error e -> fail e);
  (match Cosim.parse_assignment "driver" with
  | Ok a' ->
      check Alcotest.bool "single level parses as pure" true
        (a' = Cosim.pure Cosim.Driver)
  | Error e -> fail e);
  (match Cosim.parse_assignment "pin:bogus:tlm" with
  | Ok _ -> fail "bogus level accepted"
  | Error _ -> ());
  match Cosim.parse_assignment "pin:tlm" with
  | Ok _ -> fail "two-component assignment accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* transport backends                                                  *)
(* ------------------------------------------------------------------ *)

let test_levels_round_trip () =
  List.iter
    (fun l ->
      match T.level_of_string (T.short_name l) with
      | Ok l' -> check Alcotest.bool (T.short_name l ^ " round-trips")
                   true (l = l')
      | Error e -> fail e)
    T.all_levels;
  check Alcotest.bool "ranks ascend the ladder" true
    (List.sort compare (List.map T.rank T.all_levels) = [ 0; 1; 2; 3 ]);
  match T.level_of_string "sysc" with
  | Ok _ -> fail "unknown level accepted"
  | Error _ -> ()

let test_driver_transport_charges_call_cost () =
  let k = K.create () in
  let map = M.create [ M.ram ~name:"ram" ~base:0 ~size:8 ] in
  let tr = T.driver ~call_cost:6 map in
  check Alcotest.bool "driver level" true (tr.T.level = T.Driver);
  K.spawn ~name:"master" k (fun () ->
      let t0 = K.now k in
      tr.T.write 3 99;
      check Alcotest.int "write costs the call" 6 (K.now k - t0);
      let v = tr.T.read 3 in
      check Alcotest.int "round-trips the datum" 99 v;
      check Alcotest.int "read costs the call too" 12 (K.now k - t0));
  ignore (K.run k);
  let s = tr.T.stats () in
  check Alcotest.int "reads counted" 1 s.Bus.reads;
  check Alcotest.int "writes counted" 1 s.Bus.writes

let test_tlm_transport_counts_and_times () =
  let k = K.create () in
  let map = M.create [ M.ram ~name:"ram" ~base:0 ~size:8 ] in
  let tr = T.tlm ~read_latency:2 ~write_latency:3 k map in
  K.spawn ~name:"master" k (fun () ->
      let t0 = K.now k in
      tr.T.write 1 7;
      check Alcotest.int "tlm write latency" 3 (K.now k - t0);
      check Alcotest.int "tlm read" 7 (tr.T.read 1));
  ignore (K.run k);
  check Alcotest.int "tlm ops counted" 2 (ops tr)

let test_message_transport_binds_endpoints () =
  let k = K.create () in
  let c_in : int Ch.t = Ch.create ~depth:2 ~name:"in" k () in
  let c_out : int Ch.t = Ch.create ~depth:2 ~name:"out" k () in
  let base_in = 0x10 and base_out = 0x20 in
  let tr =
    T.message ~recv:[ (base_in, c_in) ] ~send:[ (base_out, c_out) ] ()
  in
  check Alcotest.int "empty recv endpoint not ready" 0 (tr.T.read base_in);
  check Alcotest.int "send endpoint with space ready" 1 (tr.T.read base_out);
  let got = ref [] in
  K.spawn ~name:"producer" k (fun () ->
      Ch.send c_in 11;
      Ch.send c_in 22);
  K.spawn ~name:"master" k (fun () ->
      let a = tr.T.read (base_in + 1) in
      let b = tr.T.read (base_in + 1) in
      got := [ a; b ];
      tr.T.write (base_out + 1) 33);
  K.spawn ~name:"consumer" k (fun () ->
      check Alcotest.int "forwarded over the send endpoint" 33
        (Ch.recv c_out));
  ignore (K.run k);
  check Alcotest.(list int) "data reads are channel receives" [ 11; 22 ]
    !got;
  check Alcotest.int "message traffic is not bus traffic" 0 (ops tr);
  (match tr.T.read (base_out + 1) with
  | _ -> fail "read from a send endpoint accepted"
  | exception Invalid_argument _ -> ());
  match tr.T.write 0x999 0 with
  | () -> fail "unbound address accepted"
  | exception Invalid_argument _ -> ()

let test_view_relabels_upward_only () =
  let k = K.create () in
  let map = M.create [ M.ram ~name:"ram" ~base:0 ~size:4 ] in
  let tr = T.tlm k map in
  let v = T.view tr ~as_:T.Message in
  check Alcotest.bool "relabelled" true (v.T.level = T.Message);
  K.spawn ~name:"master" k (fun () -> v.T.write 0 5);
  ignore (K.run k);
  check Alcotest.int "medium and stats are the wrapped backend's" 1 (ops tr);
  match T.view tr ~as_:T.Pin with
  | _ -> fail "view invented detail"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* transactors                                                         *)
(* ------------------------------------------------------------------ *)

let test_mailbox_bridges_channel_to_bus () =
  let k = K.create () in
  let chan : int Ch.t = Ch.create ~depth:2 ~name:"stream" k () in
  let mb = T.Mailbox.create ~depth:2 k chan in
  let map = M.create [ T.Mailbox.region ~name:"mb" ~base:0x40 mb ] in
  let tr = T.tlm k map in
  K.spawn ~name:"producer" k (fun () ->
      for i = 1 to 5 do
        K.wait 20;
        Ch.send chan (i * 3)
      done);
  let got = ref [] in
  K.spawn ~name:"master" k (fun () ->
      for _ = 1 to 5 do
        tr.T.wait_ready 0x40;
        got := tr.T.read 0x41 :: !got
      done);
  ignore (K.run k);
  check Alcotest.(list int) "a bus master consumed the message stream"
    [ 3; 6; 9; 12; 15 ] (List.rev !got);
  check Alcotest.int "pump accounted every word" 5 (T.Mailbox.delivered mb)

let test_stream_to_channel_bridges_bus_to_channel () =
  let k = K.create () in
  let src =
    Device.Stream_src.create ~depth:4 ~period:30 ~count:6
      ~gen:(fun i -> 100 + i)
      k ()
  in
  let map =
    M.create [ Device.Stream_src.region ~name:"src" ~base:0x10 src ]
  in
  let tr = T.tlm k map in
  let chan : int Ch.t = Ch.create ~depth:2 ~name:"words" k () in
  T.stream_to_channel k tr ~base:0x10 ~count:6 chan;
  let got = ref [] in
  K.spawn ~name:"consumer" k (fun () ->
      for _ = 1 to 6 do
        got := Ch.recv chan :: !got
      done);
  ignore (K.run k);
  check Alcotest.(list int) "message software consumed the bus stream"
    [ 100; 101; 102; 103; 104; 105 ]
    (List.rev !got);
  check Alcotest.bool "the pump's polls and reads were bus traffic" true
    (ops tr >= 6)

(* ------------------------------------------------------------------ *)
(* lookup-error satellites                                             *)
(* ------------------------------------------------------------------ *)

let contains msg needle =
  let n = String.length needle and m = String.length msg in
  let rec at i = i + n <= m && (String.sub msg i n = needle || at (i + 1)) in
  n = 0 || at 0

let expect_invalid_arg name needles f =
  match f () with
  | _ -> fail (name ^ ": no exception")
  | exception Invalid_argument msg ->
      List.iter
        (fun needle ->
          check Alcotest.bool
            (Printf.sprintf "%s mentions %S in %S" name needle msg)
            true (contains msg needle))
        needles

let test_memory_map_errors_name_the_windows () =
  let map =
    M.create
      [
        M.ram ~name:"scratch" ~base:0x100 ~size:16;
        M.rom ~name:"boot" ~base:0x400 [| 1; 2; 3 |];
      ]
  in
  expect_invalid_arg "read" [ "scratch"; "boot"; "0x100"; "0x10f"; "0x402" ]
    (fun () -> M.read map 0x99);
  expect_invalid_arg "write" [ "scratch"; "boot"; "unmapped address 9" ]
    (fun () -> M.write map 9 0)

let proc name sends recvs =
  {
    B.name;
    params = [];
    arrays = [];
    results = [];
    body =
      List.map (fun c -> B.Send (c, B.Int 0)) sends
      @ List.map (fun c -> B.Recv ("x", c)) recvs;
  }

let test_process_network_lookup_errors () =
  let net =
    Pn.make ~name:"pair"
      [ (proc "writer" [ "c" ] [], Pn.Sw); (proc "reader" [] [ "c" ], Pn.Hw) ]
      [ { Pn.cname = "c"; src = "writer"; dst = "reader"; depth = 1; latency = 0 } ]
  in
  check Alcotest.bool "find_proc finds" true
    (snd (Pn.find_proc net "reader") = Pn.Hw);
  check Alcotest.int "find_channel finds" 1
    (Pn.find_channel net "c").Pn.depth;
  expect_invalid_arg "find_proc" [ "ghost"; "writer"; "reader" ] (fun () ->
      Pn.find_proc net "ghost");
  expect_invalid_arg "find_channel" [ "nope"; "c" ] (fun () ->
      Pn.find_channel net "nope")

let () =
  Alcotest.run "codesign_transport"
    [
      ( "pure-level identity",
        [
          Alcotest.test_case "pure assignments reproduce golden metrics"
            `Quick test_pure_levels_reproduce_goldens;
        ] );
      ( "mixed grid",
        [
          Alcotest.test_case "sampled assignments hold the grid invariants"
            `Quick test_mixed_assignments_hold_invariants;
          Alcotest.test_case "message-sink overhead is bounded" `Quick
            test_message_sink_overhead_is_bounded;
          Alcotest.test_case "positions, names, parsing" `Quick
            test_ladder_position_and_names;
        ] );
      ( "backends",
        [
          Alcotest.test_case "level spellings round-trip" `Quick
            test_levels_round_trip;
          Alcotest.test_case "driver charges the lumped call" `Quick
            test_driver_transport_charges_call_cost;
          Alcotest.test_case "tlm counts and times transfers" `Quick
            test_tlm_transport_counts_and_times;
          Alcotest.test_case "message binds channel endpoints" `Quick
            test_message_transport_binds_endpoints;
          Alcotest.test_case "view relabels upward only" `Quick
            test_view_relabels_upward_only;
        ] );
      ( "transactors",
        [
          Alcotest.test_case "mailbox: channel -> bus" `Quick
            test_mailbox_bridges_channel_to_bus;
          Alcotest.test_case "stream pump: bus -> channel" `Quick
            test_stream_to_channel_bridges_bus_to_channel;
        ] );
      ( "lookup errors",
        [
          Alcotest.test_case "memory map names its windows" `Quick
            test_memory_map_errors_name_the_windows;
          Alcotest.test_case "process network names its members" `Quick
            test_process_network_lookup_errors;
        ] );
    ]
