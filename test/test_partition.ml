(* Tests for the conservative partitioned kernel: keyed arrival lanes,
   latency-channel semantics, the zero-lookahead guard, hand-built and
   generated partitioned networks vs the serial reference. *)

open Codesign_sim
module K = Kernel
module Ch = Channel
module P = Partition
module Pdes = Codesign_par.Pdes
module B = Codesign_ir.Behavior
module Pn = Codesign_ir.Process_network
module Rng = Codesign_ir.Rng
module Apps = Codesign_workloads.Apps
module Cosim = Codesign.Cosim
module Gen = Codesign_fuzz.Gen

let check = Alcotest.check
let fail = Alcotest.fail

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let expect_invalid ~needle f =
  match f () with
  | _ -> fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
      if not (contains ~needle msg) then
        fail (Printf.sprintf "message %S does not mention %S" msg needle)

(* ------------------------------------------------------------------ *)
(* Keyed arrival lanes                                                 *)
(* ------------------------------------------------------------------ *)

let test_keyed_order () =
  (* keyed events at a timestamp fire before ordinary events, ordered by
     (lane, sequence); ordinary events keep their push order *)
  let k = K.create () in
  let log = ref [] in
  let ev tag () = log := tag :: !log in
  let lane0 = K.alloc_lane k in
  let lane1 = K.alloc_lane k in
  K.at k ~time:10 (ev "ord0");
  K.at_keyed k ~time:10 ~key:lane1 ~seq:0 (ev "l1s0");
  K.at_keyed k ~time:10 ~key:lane0 ~seq:1 (ev "l0s1");
  K.at_keyed k ~time:10 ~key:lane0 ~seq:0 (ev "l0s0");
  K.at k ~time:10 (ev "ord1");
  ignore (K.run k);
  check
    (Alcotest.list Alcotest.string)
    "keyed lanes fire first, in (lane, seq) order"
    [ "l0s0"; "l0s1"; "l1s0"; "ord0"; "ord1" ]
    (List.rev !log)

(* ------------------------------------------------------------------ *)
(* Latency channels and the messages/blocked_sends split               *)
(* ------------------------------------------------------------------ *)

let test_latency_channel () =
  (* latency channel = delay line: sends never block, each value lands
     [latency] ticks after its send, in send order *)
  let k = K.create () in
  let c = Ch.create ~latency:3 ~name:"lat" k () in
  let arrivals = ref [] in
  K.spawn k ~name:"prod" (fun () ->
      Ch.send c 1;
      Ch.send c 2;
      K.wait 5;
      Ch.send c 3);
  K.spawn k ~name:"cons" (fun () ->
      for _ = 1 to 3 do
        let v = Ch.recv c in
        arrivals := (K.now k, v) :: !arrivals
      done);
  ignore (K.run k);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "arrival times = send time + latency, send order preserved"
    [ (3, 1); (3, 2); (8, 3) ]
    (List.rev !arrivals);
  let s = Ch.stats c in
  check Alcotest.int "sends" 3 s.Ch.sends;
  check Alcotest.int "messages" 3 s.Ch.messages;
  check Alcotest.int "no blocked sends on a latency channel" 0
    s.Ch.blocked_sends

let test_stats_split () =
  (* rendezvous back-pressure lands in blocked_sends, not messages *)
  let k = K.create () in
  let c = Ch.create ~name:"rdv" k () in
  K.spawn k ~name:"prod" (fun () ->
      Ch.send c 10;
      Ch.send c 11);
  K.spawn k ~name:"cons" (fun () ->
      K.wait 5;
      ignore (Ch.recv c);
      ignore (Ch.recv c));
  ignore (K.run k);
  let s = Ch.stats c in
  check Alcotest.int "sends" 2 s.Ch.sends;
  check Alcotest.int "messages (delivered)" 2 s.Ch.messages;
  (* first send stalls (no receiver yet); the handoff resumes the
     sender, whose second send then finds the receiver already waiting *)
  check Alcotest.int "blocked_sends (rendezvous stalls)" 1 s.Ch.blocked_sends;
  check Alcotest.int "recv_blocks" 1 s.Ch.recv_blocks

(* ------------------------------------------------------------------ *)
(* Zero-lookahead guard                                                *)
(* ------------------------------------------------------------------ *)

let test_zero_lookahead_guard () =
  let k = K.create () in
  let c : int Ch.t = Ch.create ~name:"loopy" k () in
  expect_invalid ~needle:"loopy" (fun () -> Ch.set_route c (fun _ _ -> ()));
  (* the partition layer names the channel and calls out self-loops *)
  let plan = P.create ~partitions:2 in
  let c0 : int Ch.t = Ch.create ~name:"xchan" (P.kernel plan 0) () in
  expect_invalid ~needle:"xchan" (fun () ->
      P.route_channel plan ~src:0 ~dst:1 c0);
  let c1 : int Ch.t = Ch.create ~name:"selfy" (P.kernel plan 0) () in
  expect_invalid ~needle:"self-loop" (fun () ->
      P.route_channel plan ~src:0 ~dst:0 c1);
  (* and run_network surfaces the same guard for latency-0 cut channels *)
  let net =
    Pn.make ~name:"tiny"
      [
        (Apps.producer ~chan:"c0" ~count:4 (), Pn.Hw);
        (Apps.consumer ~chan:"c0" ~count:4 ~port:1 (), Pn.Hw);
      ]
      [ { Pn.cname = "c0"; src = "producer"; dst = "consumer"; depth = 2;
          latency = 0 } ]
  in
  expect_invalid ~needle:"c0" (fun () ->
      Cosim.run_network ~partition:[ ("consumer", 1) ] net)

let test_pn_latency_validation () =
  expect_invalid ~needle:"latency" (fun () ->
      Pn.make ~name:"bad"
        [
          (Apps.producer ~chan:"c0" ~count:1 (), Pn.Hw);
          (Apps.consumer ~chan:"c0" ~count:1 ~port:1 (), Pn.Hw);
        ]
        [ { Pn.cname = "c0"; src = "producer"; dst = "consumer"; depth = 1;
            latency = -1 } ])

(* ------------------------------------------------------------------ *)
(* Hand-built two-partition network vs the single-wheel reference      *)
(* ------------------------------------------------------------------ *)

(* A chain over [stages] >= 2 partitions: a producer on partition 0
   streams over latency-2 channels, through a relay on each middle
   partition, to a consumer on the last one, which also writes each
   value it receives to a status signal a VCD recorder on its partition
   watches.  The exact same construction runs on one wheel, on a plan
   driven serially, and on a plan driven by domains; the received
   (time, value) log, the VCD dump and the merged kernel stats must
   match byte for byte.  Three and five partitions outnumber the cores
   of a small host, so one domain serves several partitions. *)

let build_hand_chain ~stages ~kern ~plan =
  let last = stages - 1 in
  let links =
    Array.init last (fun i ->
        Ch.create ~latency:2 ~name:(Printf.sprintf "x%d" i) (kern (i + 1)) ())
  in
  let s = Signal.create ~name:"st" 0 in
  let vcd = Vcd.create (kern last) in
  Vcd.watch vcd ~width:16 s;
  Option.iter
    (fun plan ->
      Array.iteri (fun i c -> P.route_channel plan ~src:i ~dst:(i + 1) c) links)
    plan;
  let log = ref [] in
  K.spawn (kern 0) ~name:"prod" (fun () ->
      for i = 0 to 7 do
        Ch.send links.(0) (i * i);
        K.wait 3
      done);
  for r = 1 to last - 1 do
    K.spawn (kern r) ~name:(Printf.sprintf "relay%d" r) (fun () ->
        for _ = 0 to 7 do
          Ch.send links.(r) (Ch.recv links.(r - 1) + r)
        done)
  done;
  K.spawn (kern last) ~name:"cons" (fun () ->
      for _ = 0 to 7 do
        let v = Ch.recv links.(last - 1) in
        Signal.write s v;
        log := (K.now (kern last), v) :: !log
      done);
  (log, vcd)

let run_hand_serial ~stages =
  let k = K.create () in
  let log, vcd = build_hand_chain ~stages ~kern:(fun _ -> k) ~plan:None in
  let stats = K.run k in
  (List.rev !log, Vcd.dump vcd, stats)

let run_hand_partitioned ~stages drive =
  let plan = P.create ~partitions:stages in
  let log, vcd =
    build_hand_chain ~stages ~kern:(P.kernel plan) ~plan:(Some plan)
  in
  let stats = drive plan in
  (List.rev !log, Vcd.dump vcd, stats)

let test_hand_network () =
  List.iter
    (fun stages ->
      let log0, vcd0, st0 = run_hand_serial ~stages in
      if stages = 2 then
        check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
          "serial reference log"
          [ (2, 0); (5, 1); (8, 4); (11, 9); (14, 16); (17, 25); (20, 36);
            (23, 49) ]
          log0;
      List.iter
        (fun (tag, drive) ->
          let tag = Printf.sprintf "%s p=%d" tag stages in
          let log, vcd, st = run_hand_partitioned ~stages drive in
          check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
            (tag ^ ": received log") log0 log;
          check Alcotest.string (tag ^ ": vcd dump") vcd0 vcd;
          check Alcotest.bool (tag ^ ": merged stats") true (st = st0))
        [
          ("run_serial", fun plan -> P.run_serial plan);
          ("pdes", fun plan -> Pdes.run plan);
        ])
    [ 2; 3; 5 ]

(* A chain deadlocked across [stages] partitions: the producer on
   partition 0 sends [sent] items over latency-2 channels, a relay on
   each middle partition forwards forever, and the consumer on the last
   partition waits for one item more than was sent.  Every relay and
   the consumer end blocked on drained wheels (a daemon watcher on the
   last partition must never be named), so the collective checks in
   [Partition.finish] must read every partition, not just one. *)
let build_stuck_chain ~stages ~kern ~plan =
  let last = stages - 1 and sent = 4 in
  let links =
    Array.init last (fun i ->
        Ch.create ~latency:2 ~name:(Printf.sprintf "x%d" i) (kern (i + 1)) ())
  in
  Option.iter
    (fun plan ->
      Array.iteri (fun i c -> P.route_channel plan ~src:i ~dst:(i + 1) c) links)
    plan;
  K.spawn (kern 0) ~name:"prod" (fun () ->
      for v = 1 to sent do
        Ch.send links.(0) v;
        K.wait 3
      done);
  for r = 1 to last - 1 do
    K.spawn (kern r) ~name:(Printf.sprintf "relay%d" r) (fun () ->
        while true do
          Ch.send links.(r) (Ch.recv links.(r - 1))
        done)
  done;
  K.spawn (kern last) ~name:"cons" (fun () ->
      for _ = 0 to sent do
        ignore (Ch.recv links.(last - 1))
      done);
  K.spawn (kern last) ~name:"watch" ~daemon:true (fun () ->
      K.suspend ~register:(fun _ -> ()))

(* The three bounds on the single wheel and on both partitioned
   drivers, at 2 and 3 partitions: [Drain] raises [Deadlock] naming the
   same sorted processes; [Quiesce] returns with each stuck process
   listed by its own partition; [Until t] leaves every clock at [t],
   whether [t] falls mid-run or after the deadlock. *)
let test_collective_deadlock () =
  let sorted l = List.sort compare l in
  let deadlock tag run =
    match run () with
    | _ -> fail (tag ^ ": expected Deadlock")
    | exception K.Deadlock names -> names
  in
  List.iter
    (fun stages ->
      let single bound =
        let k = K.create () in
        build_stuck_chain ~stages ~kern:(fun _ -> k) ~plan:None;
        (k, fun () -> K.run ~bound k)
      in
      let stuck =
        sorted
          ("cons"
          :: List.init (stages - 2) (fun r -> Printf.sprintf "relay%d" (r + 1)))
      in
      let names = deadlock "single wheel" (snd (single K.Drain)) in
      check Alcotest.string
        (Printf.sprintf "single wheel p=%d: Drain names" stages)
        (String.concat ", " stuck) names;
      let k, run = single K.Quiesce in
      ignore (run ());
      check Alcotest.(list string) "single wheel: Quiesce leaves them blocked"
        stuck
        (sorted (K.blocked_non_daemon k));
      List.iter
        (fun t ->
          let k, run = single (K.Until t) in
          ignore (run ());
          check Alcotest.int (Printf.sprintf "single wheel: Until %d" t) t
            (K.now k))
        [ 5; 200 ];
      List.iter
        (fun (driver, drive) ->
          let tag = Printf.sprintf "%s p=%d" driver stages in
          let partitioned bound =
            let plan = P.create ~partitions:stages in
            build_stuck_chain ~stages ~kern:(P.kernel plan) ~plan:(Some plan);
            (plan, fun () -> drive ~bound plan)
          in
          check Alcotest.string (tag ^ ": Drain names") names
            (deadlock tag (snd (partitioned K.Drain)));
          let plan, run = partitioned K.Quiesce in
          ignore (run ());
          for i = 0 to stages - 1 do
            check Alcotest.(list string)
              (Printf.sprintf "%s: Quiesce, partition %d blocked" tag i)
              (if i = 0 then []
               else if i = stages - 1 then [ "cons" ]
               else [ Printf.sprintf "relay%d" i ])
              (sorted (K.blocked_non_daemon (P.kernel plan i)))
          done;
          List.iter
            (fun t ->
              let plan, run = partitioned (K.Until t) in
              ignore (run ());
              for i = 0 to stages - 1 do
                check Alcotest.int
                  (Printf.sprintf "%s: Until %d, partition %d clock" tag t i)
                  t
                  (K.now (P.kernel plan i))
              done)
            [ 5; 200 ])
        [
          ("run_serial", fun ~bound plan -> P.run_serial ~bound plan);
          ("pdes", fun ~bound plan -> Pdes.run ~bound plan);
        ])
    [ 2; 3 ]

(* A process that raises on partition 1 — a helper domain's partition
   whenever the host has two cores — surfaces from [Pdes.run] after the
   join.  Two hundred runs would exhaust the runtime's domain limit if a
   failed run leaked its helpers. *)
let test_pdes_reraises () =
  for i = 1 to 200 do
    let plan = P.create ~partitions:3 in
    let c = Ch.create ~latency:2 ~name:"x" (P.kernel plan 1) () in
    P.route_channel plan ~src:0 ~dst:1 c;
    K.spawn (P.kernel plan 0) ~name:"prod" (fun () ->
        for v = 0 to 9 do
          Ch.send c v;
          K.wait 1
        done);
    K.spawn (P.kernel plan 1) ~name:"cons" (fun () ->
        while Ch.recv c < 5 do
          ()
        done;
        failwith "boom");
    K.spawn (P.kernel plan 2) ~name:"idle" (fun () -> K.wait 50);
    match Pdes.run plan with
    | _ -> fail (Printf.sprintf "run %d: the raise was lost" i)
    | exception Failure msg -> check Alcotest.string "re-raised" "boom" msg
  done

(* ------------------------------------------------------------------ *)
(* Whole-network byte-identity: mesh, echo, fuzzed feed-forward nets   *)
(* ------------------------------------------------------------------ *)

let check_same_result tag (a : Cosim.network_result)
    (b : Cosim.network_result) =
  check Alcotest.int (tag ^ ": end_time") a.Cosim.end_time b.Cosim.end_time;
  check Alcotest.int (tag ^ ": events") a.Cosim.net_events b.Cosim.net_events;
  check Alcotest.int (tag ^ ": activations") a.Cosim.net_activations
    b.Cosim.net_activations;
  check Alcotest.bool (tag ^ ": full result (ports, results, stats)") true
    (a = b)

(* [Cosim.run_network] drives every plan through [Pdes.run]; with 3 and
   5 partitions, one domain serves several of them on a small host. *)
let test_mesh_partition_maps () =
  let stages = 3 in
  let mesh lanes = Apps.mesh ~stages ~lanes ~count:10 ~work:4 () in
  let net = mesh 4 in
  let serial = Cosim.run_network net in
  let scatter =
    (* an arbitrary non-lane-aligned map: every channel still has
       latency >= 1, so any cut is legal *)
    List.mapi
      (fun i (p, _) -> (p.B.name, [| 0; 2; 1; 1; 0; 2 |].(i mod 6)))
      net.Pn.procs
  in
  List.iter
    (fun (tag, map) ->
      check_same_result tag serial (Cosim.run_network ~partition:map net))
    [
      ("mesh p=2", Apps.mesh_partition ~stages ~lanes:4 ~partitions:2 ());
      ("mesh p=3", Apps.mesh_partition ~stages ~lanes:4 ~partitions:3 ());
      ("mesh p=4", Apps.mesh_partition ~stages ~lanes:4 ~partitions:4 ());
      ("mesh scatter", scatter);
    ];
  let net5 = mesh 5 in
  check_same_result "mesh p=5" (Cosim.run_network net5)
    (Cosim.run_network
       ~partition:(Apps.mesh_partition ~stages ~lanes:5 ~partitions:5 ())
       net5)

let test_echo_partitioned () =
  let run ~partitions =
    Cosim.run_echo_assignment
      ~levels:(Cosim.pure Cosim.Message)
      ~partitions ~link_latency:4 ()
  in
  let serial = run ~partitions:1 in
  check Alcotest.bool "echo p=2 ≡ serial" true (run ~partitions:2 = serial);
  check Alcotest.bool "echo p=3 ≡ serial" true (run ~partitions:3 = serial);
  expect_invalid ~needle:"lookahead" (fun () ->
      Cosim.run_echo_assignment
        ~levels:(Cosim.pure Cosim.Message)
        ~partitions:2 ~link_latency:0 ())

let test_net_spec_sweep () =
  for seed = 1 to 10 do
    let net = Gen.net_spec (Rng.create (1000 + seed)) in
    let serial = Cosim.run_network net in
    let names = List.map (fun (p, _) -> p.B.name) net.Pn.procs in
    let rng = Rng.create seed in
    let random_map = List.map (fun n -> (n, Rng.int rng 3)) names in
    List.iter
      (fun (tag, map) ->
        check_same_result
          (Printf.sprintf "net_spec seed %d %s" seed tag)
          serial
          (Cosim.run_network ~partition:map net))
      [
        ("p=2", List.mapi (fun i n -> (n, i mod 2)) names);
        ("p=4", List.mapi (fun i n -> (n, i mod 4)) names);
        ("random", random_map);
      ]
  done

(* ------------------------------------------------------------------ *)
(* Callback hardware processes = the fiber oracle                      *)
(* ------------------------------------------------------------------ *)

module Fiber = Codesign_reference.Fiber_network

(* A random all-hardware network with its run arguments.  Processes
   share labelled engines at random; a partition map, when drawn, keeps
   every labelled engine on one partition and gives every channel that
   crosses partitions a latency of 1-3.  Each process runs rounds of
   its channel operations in a random order, with filler statements and
   port writes between them; round counts agree more often than not,
   so some networks complete (maybe with messages left in flight) and
   the rest deadlock.  One network in 25 sends or receives on a channel
   no declaration names (built without [Pn.make]'s checks), which must
   raise [Not_found] when that statement first runs; one in 40, never
   partitioned, loops forever and runs out of fuel. *)
let draw_network seed =
  let rng = Rng.create seed in
  let n = Rng.int_in rng 2 6 in
  let name i = Printf.sprintf "p%d" i in
  let label =
    Array.init n (fun _ ->
        if Rng.int rng 3 = 0 then Some (Rng.int_in rng (-1) 1) else None)
  in
  let bad = Rng.int rng 1000 in
  let ghost = bad < 40 and forever = bad >= 40 && bad < 65 in
  let part =
    if forever || Rng.int rng 3 > 0 then None
    else begin
      let of_label = Array.init 3 (fun _ -> Rng.int rng 3) in
      Some
        (Array.map
           (function Some l -> of_label.(l + 1) | None -> Rng.int rng 3)
           label)
    end
  in
  let channels =
    List.init (Rng.int_in rng 1 (n + 2)) (fun c ->
        let src = Rng.int rng n in
        let dst = (src + Rng.int_in rng 1 (n - 1)) mod n in
        let crosses =
          match part with Some pt -> pt.(src) <> pt.(dst) | None -> false
        in
        {
          Pn.cname = Printf.sprintf "c%d" c;
          src = name src;
          dst = name dst;
          depth = Rng.int rng 3;
          latency = (if crosses then Rng.int_in rng 1 3 else Rng.int rng 3);
        })
  in
  let rounds = Rng.int_in rng 1 4 in
  let procs =
    List.init n (fun i ->
        let me = name i in
        let ops =
          List.concat_map
            (fun (c : Pn.channel) ->
              (if c.Pn.dst = me then
                 [
                   [
                     B.Recv ("x", c.Pn.cname);
                     B.Assign ("acc", B.Bin (B.Add, B.Var "acc", B.Var "x"));
                   ];
                 ]
               else [])
              @
              if c.Pn.src = me then
                [
                  [
                    B.Send (c.Pn.cname, B.Bin (B.Add, B.Var "acc", B.Var "r"));
                  ];
                ]
              else [])
            channels
          @ List.init (Rng.int rng 3) (fun _ ->
                [
                  B.Assign
                    ("w", B.Bin (B.Mul, B.Var "w", B.Int (Rng.int_in rng 2 5)));
                ])
          @ if Rng.bool rng then [ [ B.PortOut (1, B.Var "acc") ] ] else []
        in
        let ops = Array.of_list ops in
        Rng.shuffle rng ops;
        let round = List.concat (Array.to_list ops) in
        let r = if Rng.int rng 4 = 0 then Rng.int_in rng 0 4 else rounds in
        let loop =
          if Rng.bool rng then B.For ("r", B.Int 0, B.Int r, round)
          else
            B.While
              ( B.Bin (B.Lt, B.Var "r", B.Int r),
                round @ [ B.Assign ("r", B.Bin (B.Add, B.Var "r", B.Int 1)) ],
                r )
        in
        let body =
          [ B.Assign ("w", B.Int 1); loop; B.PortOut (2, B.Var "acc") ]
        in
        ({ B.name = me; params = []; arrays = []; results = []; body }, Pn.Hw))
  in
  let tweak k extra =
    List.mapi
      (fun i ((p : B.proc), m) ->
        if i = k then ({ p with B.body = extra :: p.B.body }, m) else (p, m))
      procs
  in
  let net =
    if ghost then
      let stray =
        if Rng.bool rng then B.Send ("ghost", B.Int 1)
        else B.Recv ("x", "ghost")
      in
      { Pn.name = "ghostly"; procs = tweak (Rng.int rng n) stray; channels }
    else
      Pn.make ~name:"random"
        (if forever then
           tweak (Rng.int rng n)
             (B.While
                ( B.Int 1,
                  [ B.Assign ("w", B.Bin (B.Add, B.Var "w", B.Int 1)) ],
                  1 ))
         else procs)
        channels
  in
  let hw_engines =
    List.filter_map (fun i -> Option.map (fun l -> (name i, l)) label.(i))
      (List.init n Fun.id)
  in
  let partition =
    Option.map (fun pt -> List.init n (fun i -> (name i, pt.(i)))) part
  in
  let cross_cost = if Rng.bool rng then Some (Rng.int_in rng 1 3) else None in
  (net, hw_engines, partition, cross_cost)

let network_outcome
    (run :
      ?hw_engines:(string * int) list ->
      ?cross_cost:int ->
      ?partition:(string * int) list ->
      Pn.t ->
      Cosim.network_result) (net, hw_engines, partition, cross_cost) =
  match run ~hw_engines ?cross_cost ?partition net with
  | r -> Ok r
  | exception e -> Error (Printexc.to_string e)

let network_matches_oracle seed =
  let drawn = draw_network seed in
  network_outcome Cosim.run_network drawn
  = network_outcome Fiber.run_network drawn

let prop_network_matches_fiber_oracle =
  QCheck.Test.make ~name:"run_network = fiber oracle" ~count:300
    QCheck.(int_bound 1_000_000)
    network_matches_oracle

let () =
  Alcotest.run "partition"
    [
      ( "lanes",
        [ Alcotest.test_case "keyed ordering" `Quick test_keyed_order ] );
      ( "channels",
        [
          Alcotest.test_case "latency semantics" `Quick test_latency_channel;
          Alcotest.test_case "stats split" `Quick test_stats_split;
        ] );
      ( "guards",
        [
          Alcotest.test_case "zero lookahead" `Quick test_zero_lookahead_guard;
          Alcotest.test_case "pn latency validation" `Quick
            test_pn_latency_validation;
        ] );
      ( "identity",
        [
          Alcotest.test_case "hand-built network" `Quick test_hand_network;
          Alcotest.test_case "mesh maps" `Quick test_mesh_partition_maps;
          Alcotest.test_case "echo" `Quick test_echo_partitioned;
          Alcotest.test_case "fuzzed feed-forward nets" `Quick
            test_net_spec_sweep;
          Alcotest.test_case "helper raise re-raised after join" `Quick
            test_pdes_reraises;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "collective deadlock across partitions" `Quick
            test_collective_deadlock;
        ] );
      ( "callbacks",
        [ QCheck_alcotest.to_alcotest prop_network_matches_fiber_oracle ] );
    ]
