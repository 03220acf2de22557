(* Tests for the codesign_ir library: graphs, task graphs, CDFGs,
   behaviours and process networks. *)

open Codesign_ir
module G = Graph_algo
module B = Behavior

let check = Alcotest.check
let fail = Alcotest.fail

(* ------------------------------------------------------------------ *)
(* Graph_algo                                                          *)
(* ------------------------------------------------------------------ *)

let diamond () = G.create ~n:4 ~edges:[ (0, 1); (0, 2); (1, 3); (2, 3) ]

let test_graph_basic () =
  let g = diamond () in
  check (Alcotest.list Alcotest.int) "succ 0" [ 1; 2 ] (G.succ g 0);
  check (Alcotest.list Alcotest.int) "succ 1" [ 3 ] (G.succ g 1);
  check (Alcotest.list Alcotest.int) "succ 3" [] (G.succ g 3);
  (* parallel edges are kept *)
  let multi = G.create ~n:2 ~edges:[ (0, 1); (0, 1) ] in
  check (Alcotest.list Alcotest.int) "parallel" [ 1; 1 ] (G.succ multi 0)

let test_graph_invalid () =
  (try
     ignore (G.create ~n:2 ~edges:[ (0, 2) ]);
     fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  try
    ignore (G.create ~n:(-1) ~edges:[]);
    fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_topo_sort () =
  let g = diamond () in
  (match G.topo_sort g with
  | Some [ 0; 1; 2; 3 ] -> ()
  | Some o ->
      fail
        ("unexpected order: " ^ String.concat "," (List.map string_of_int o))
  | None -> fail "expected a DAG");
  let cyc = G.create ~n:3 ~edges:[ (0, 1); (1, 2); (2, 0) ] in
  check Alcotest.bool "cyclic" false (G.is_dag cyc);
  check Alcotest.bool "dag" true (G.is_dag g);
  (* self loop is a cycle *)
  let self = G.create ~n:1 ~edges:[ (0, 0) ] in
  check Alcotest.bool "self-loop cyclic" false (G.is_dag self)

let test_topo_deterministic () =
  (* A wide antichain must come out in ascending id order. *)
  let g = G.create ~n:5 ~edges:[] in
  match G.topo_sort g with
  | Some o -> check (Alcotest.list Alcotest.int) "order" [ 0; 1; 2; 3; 4 ] o
  | None -> fail "dag"

let test_sources_sinks () =
  let g = diamond () in
  let nodes = [ 0; 1; 2; 3 ] in
  let has_pred v = List.exists (fun u -> List.mem v (G.succ g u)) nodes in
  check (Alcotest.list Alcotest.int) "sources"
    [ 0 ] (List.filter (fun v -> not (has_pred v)) nodes);
  check (Alcotest.list Alcotest.int) "sink has no successor" [] (G.succ g 3)

let test_longest_path () =
  let g = diamond () in
  let w = [| 1; 5; 2; 1 |] in
  let dist = G.longest_path g ~weight:(fun i -> w.(i)) in
  check Alcotest.int "dist 0" 1 dist.(0);
  check Alcotest.int "dist 1" 6 dist.(1);
  check Alcotest.int "dist 2" 3 dist.(2);
  check Alcotest.int "dist 3" 7 dist.(3)

let test_critical_path () =
  let g = diamond () in
  let w = [| 1; 5; 2; 1 |] in
  let path, total = G.critical_path g ~weight:(fun i -> w.(i)) in
  check Alcotest.int "total" 7 total;
  check (Alcotest.list Alcotest.int) "path" [ 0; 1; 3 ] path

let test_critical_path_cyclic_raises () =
  let cyc = G.create ~n:2 ~edges:[ (0, 1); (1, 0) ] in
  try
    ignore (G.longest_path cyc ~weight:(fun _ -> 1));
    fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let random_dag_gen =
  QCheck.Gen.(
    sized_size (int_range 1 30) (fun n ->
        let* density = int_range 0 3 in
        let edges = ref [] in
        let* seeds = list_repeat (n * density) (pair (int_bound 1000) (int_bound 1000)) in
        List.iter
          (fun (a, b) ->
            let u = a mod n and v = b mod n in
            if u < v then edges := (u, v) :: !edges)
          seeds;
        return (n, !edges)))

let arb_dag =
  QCheck.make
    ~print:(fun (n, es) ->
      Printf.sprintf "n=%d edges=[%s]" n
        (String.concat ";"
           (List.map (fun (u, v) -> Printf.sprintf "(%d,%d)" u v) es)))
    random_dag_gen

let prop_topo_respects_edges =
  QCheck.Test.make ~name:"topo order places edges forward" ~count:200 arb_dag
    (fun (n, edges) ->
      let g = G.create ~n ~edges in
      match G.topo_sort g with
      | None -> false (* by construction u < v, always a DAG *)
      | Some order ->
          let pos = Array.make n 0 in
          List.iteri (fun i u -> pos.(u) <- i) order;
          List.for_all (fun (u, v) -> pos.(u) < pos.(v)) edges)

let prop_longest_path_ge_weight =
  QCheck.Test.make ~name:"longest path >= node weight" ~count:200 arb_dag
    (fun (n, edges) ->
      let g = G.create ~n ~edges in
      let dist = G.longest_path g ~weight:(fun i -> (i mod 7) + 1) in
      Array.to_list dist
      |> List.mapi (fun i d -> d >= (i mod 7) + 1)
      |> List.for_all Fun.id)

let prop_critical_path_is_valid_path =
  QCheck.Test.make ~name:"critical path is a real path with stated weight"
    ~count:200 arb_dag (fun (n, edges) ->
      let g = G.create ~n ~edges in
      let w i = (i mod 5) + 1 in
      let path, total = G.critical_path g ~weight:w in
      let rec ok = function
        | [] -> true
        | [ _ ] -> true
        | u :: (v :: _ as rest) -> List.mem v (G.succ g u) && ok rest
      in
      ok path && total = List.fold_left (fun a u -> a + w u) 0 path)

(* ------------------------------------------------------------------ *)
(* Task_graph                                                          *)
(* ------------------------------------------------------------------ *)

module T = Task_graph

let mk_task id name sw hw area =
  T.task ~id ~name ~sw_cycles:sw ~hw_cycles:hw ~hw_area:area ()

let small_tg () =
  T.make ~name:"small" ~deadline:100
    [ mk_task 0 "a" 10 2 50; mk_task 1 "b" 30 5 80; mk_task 2 "c" 20 4 60 ]
    [ { T.src = 0; dst = 1; words = 4 }; { T.src = 1; dst = 2; words = 8 } ]

let test_tg_basic () =
  let g = small_tg () in
  check Alcotest.int "n" 3 (T.n_tasks g);
  check Alcotest.int "total sw" 60 (T.total_sw_cycles g);
  check Alcotest.bool "total area" true
    (let s = Format.asprintf "%a" T.pp g in
     let key = "hw area (standalone)=190" in
     let n = String.length key in
     let rec find i =
       i + n <= String.length s && (String.sub s i n = key || find (i + 1))
     in
     find 0);
  check Alcotest.int "cp" 60 (T.sw_critical_path g);
  check (Alcotest.list Alcotest.int) "words 0->1" [ 4 ]
    (List.map (fun (e : T.edge) -> e.T.words) (T.in_edges g 1));
  check (Alcotest.list Alcotest.int) "topo" [ 0; 1; 2 ] (T.topo_order g)

let test_tg_validation () =
  let bad_ids () =
    T.make [ mk_task 1 "a" 1 1 1 ] [] |> ignore
  in
  (try bad_ids (); fail "ids" with Invalid_argument _ -> ());
  (try
     T.make
       [ mk_task 0 "a" 1 1 1 ]
       [ { T.src = 0; dst = 0; words = 1 } ]
     |> ignore;
     fail "self-loop"
   with Invalid_argument _ -> ());
  (try
     T.make
       [ mk_task 0 "a" 1 1 1; mk_task 1 "b" 1 1 1 ]
       [ { T.src = 0; dst = 1; words = -3 } ]
     |> ignore;
     fail "negative words"
   with Invalid_argument _ -> ());
  try
    T.make
      [ mk_task 0 "a" 1 1 1; mk_task 1 "b" 1 1 1 ]
      [ { T.src = 0; dst = 1; words = 1 }; { T.src = 1; dst = 0; words = 1 } ]
    |> ignore;
    fail "cycle"
  with Invalid_argument _ -> ()

let test_tg_defaults () =
  let t = mk_task 0 "x" 10 1 1 in
  check Alcotest.int "sw_bytes default" 20 t.T.sw_bytes;
  check Alcotest.bool "modifiable default" false t.T.modifiable

let test_tg_scale_deadline () =
  let g = small_tg () in
  let g2 = T.scale_deadline g 1.5 in
  check Alcotest.int "deadline" 90 g2.T.deadline

let test_tg_edges_views () =
  let g = small_tg () in
  check Alcotest.int "in_edges 1" 1 (List.length (T.in_edges g 1));
  check (Alcotest.list Alcotest.int) "succ 0" [ 1 ] (G.succ (T.graph g) 0);
  check (Alcotest.list Alcotest.int) "succ 1" [ 2 ] (G.succ (T.graph g) 1)

(* ------------------------------------------------------------------ *)
(* Cdfg                                                                *)
(* ------------------------------------------------------------------ *)

module C = Cdfg

let mac_block () =
  (* t = a*b + c *)
  C.block_make "bb0"
    [
      { C.id = 0; opcode = C.Read "a"; args = [] };
      { C.id = 1; opcode = C.Read "b"; args = [] };
      { C.id = 2; opcode = C.Mul; args = [ 0; 1 ] };
      { C.id = 3; opcode = C.Read "c"; args = [] };
      { C.id = 4; opcode = C.Add; args = [ 2; 3 ] };
      { C.id = 5; opcode = C.Write "t"; args = [ 4 ] };
    ]

let test_cdfg_basic () =
  let g = C.make ~name:"mac" [ mac_block () ] in
  check Alcotest.int "total ops" 6 (C.total_ops g);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "mix"
    [ ("add", 1); ("mul", 1) ]
    (C.op_mix g)

let test_cdfg_validation () =
  (try
     C.make [ C.block_make "b" [ { C.id = 0; opcode = C.Add; args = [] } ] ]
     |> ignore;
     fail "arity"
   with Invalid_argument _ -> ());
  (try
     C.make
       [ C.block_make "b" [ { C.id = 0; opcode = C.Neg; args = [ 0 ] } ] ]
     |> ignore;
     fail "forward ref"
   with Invalid_argument _ -> ());
  try
    C.make [ C.block_make "b" []; C.block_make "b" [] ] |> ignore;
    fail "dup labels"
  with Invalid_argument _ -> ()

let test_cdfg_trip_weighting () =
  let b = { (mac_block ()) with C.trip = 10 } in
  let g = C.make [ b ] in
  check Alcotest.int "dyn ops" 60 (C.total_ops g);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "mix x10"
    [ ("add", 10); ("mul", 10) ]
    (C.op_mix g)

(* ------------------------------------------------------------------ *)
(* Behavior                                                            *)
(* ------------------------------------------------------------------ *)

let run_res p binds = B.run p binds

let test_behavior_arith () =
  let p =
    {
      B.name = "arith";
      params = [ "a"; "b" ];
      arrays = [];
      results = [ "x"; "y"; "z" ];
      body =
        [
          B.Assign ("x", B.Bin (B.Add, B.Var "a", B.Var "b"));
          B.Assign ("y", B.Bin (B.Mul, B.Var "a", B.Var "b"));
          B.Assign
            ("z", B.Bin (B.Div, B.Var "a", B.Int 0) (* div by 0 -> 0 *));
        ];
    }
  in
  let r = run_res p [ ("a", 7); ("b", 5) ] in
  check Alcotest.int "x" 12 (List.assoc "x" r);
  check Alcotest.int "y" 35 (List.assoc "y" r);
  check Alcotest.int "z" 0 (List.assoc "z" r)

let test_behavior_control () =
  (* sum of squares 0..n-1 via for; factorial via while *)
  let p =
    {
      B.name = "ctl";
      params = [ "n" ];
      arrays = [];
      results = [ "sum"; "fact" ];
      body =
        [
          B.Assign ("sum", B.Int 0);
          B.For
            ( "i",
              B.Int 0,
              B.Var "n",
              [
                B.Assign
                  ( "sum",
                    B.Bin
                      (B.Add, B.Var "sum", B.Bin (B.Mul, B.Var "i", B.Var "i"))
                  );
              ] );
          B.Assign ("fact", B.Int 1);
          B.Assign ("k", B.Var "n");
          B.While
            ( B.Bin (B.Lt, B.Int 0, B.Var "k"),
              [
                B.Assign ("fact", B.Bin (B.Mul, B.Var "fact", B.Var "k"));
                B.Assign ("k", B.Bin (B.Sub, B.Var "k", B.Int 1));
              ],
              5 );
        ];
    }
  in
  let r = run_res p [ ("n", 5) ] in
  check Alcotest.int "sum" 30 (List.assoc "sum" r);
  check Alcotest.int "fact" 120 (List.assoc "fact" r)

let test_behavior_arrays () =
  let p =
    {
      B.name = "arr";
      params = [];
      arrays = [ ("t", 4) ];
      results = [ "s" ];
      body =
        [
          B.For
            ( "i",
              B.Int 0,
              B.Int 4,
              [ B.Store ("t", B.Var "i", B.Bin (B.Mul, B.Var "i", B.Int 3)) ]
            );
          B.Assign ("s", B.Int 0);
          B.For
            ( "i",
              B.Int 0,
              B.Int 4,
              [
                B.Assign
                  ("s", B.Bin (B.Add, B.Var "s", B.Idx ("t", B.Var "i")));
              ] );
        ];
    }
  in
  check Alcotest.int "s" 18 (List.assoc "s" (run_res p []))

let test_behavior_array_clamp () =
  let p =
    {
      B.name = "clamp";
      params = [];
      arrays = [ ("t", 2) ];
      results = [ "v" ];
      body =
        [
          B.Store ("t", B.Int 99, B.Int 42);
          (* clamps to index 1 *)
          B.Assign ("v", B.Idx ("t", B.Int 1));
        ];
    }
  in
  check Alcotest.int "clamped store" 42 (List.assoc "v" (run_res p []))

let test_behavior_io () =
  let io, out = B.collecting_io () in
  let p =
    {
      B.name = "io";
      params = [];
      arrays = [];
      results = [];
      body =
        [
          B.PortIn ("x", 3);
          B.PortOut (1, B.Bin (B.Add, B.Var "x", B.Int 1));
          B.PortOut (2, B.Int 9);
        ];
    }
  in
  let io = { io with B.port_in = (fun p -> p * 10) } in
  ignore (B.run ~io p []);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "outs"
    [ (1, 31); (2, 9) ]
    (List.rev !out)

let test_behavior_fuel () =
  let p =
    {
      B.name = "loop";
      params = [];
      arrays = [];
      results = [];
      body = [ B.While (B.Int 1, [ B.Assign ("x", B.Int 0) ], 1) ];
    }
  in
  try
    ignore (B.run ~fuel:1000 p []);
    fail "expected fuel exhaustion"
  with Invalid_argument _ -> ()

let test_behavior_array_binding () =
  let p =
    {
      B.name = "bind";
      params = [];
      arrays = [ ("t", 3) ];
      results = [ "v" ];
      body = [ B.Assign ("v", B.Idx ("t", B.Int 2)) ];
    }
  in
  check Alcotest.int "preloaded" 7 (List.assoc "v" (B.run p [ ("t[2]", 7) ]))

(* ------------------------------------------------------------------ *)
(* Behavior.run = the reference tree-walker                            *)
(* ------------------------------------------------------------------ *)

module Ref = Codesign_reference.Behavior_interp

(* Everything a run shows the world, in order: each tick, each io call
   with its value and each extension call with its operands. *)
type event =
  | Tick
  | Port_in of int * int
  | Port_out of int * int
  | Send of string * int
  | Recv of string * int
  | Ext of int * int * int * int

type outcome = Results of (string * int) list | Raised of string

(* Run [p] through [run] with io that logs every call and answers
   inputs from a counter, so both implementations read the same values
   as long as their traces agree. *)
let observe run ?(ext = false) ?fuel p binds =
  let trace = ref [] and n = ref 0 in
  let log e = trace := e :: !trace in
  let answer () =
    incr n;
    (!n * 37 mod 23) - 11
  in
  let io =
    {
      B.port_in =
        (fun port ->
          let v = answer () in
          log (Port_in (port, v));
          v);
      port_out = (fun port v -> log (Port_out (port, v)));
      send = (fun ch v -> log (Send (ch, v)));
      recv =
        (fun ch ->
          let v = answer () in
          log (Recv (ch, v));
          v);
    }
  in
  let ext =
    if ext then
      Some
        (fun op acc a b ->
          log (Ext (op, acc, a, b));
          (acc * 3) + (a * 5) - b + op)
    else None
  in
  let outcome =
    match run ~io ?ext ~tick:(fun () -> log Tick) ?fuel p binds with
    | results -> Results results
    | exception Invalid_argument m -> Raised ("Invalid_argument " ^ m)
    | exception Failure m -> Raised ("Failure " ^ m)
  in
  (List.rev !trace, outcome)

(* the implementations, with the labels [observe] passes *)
let compiled ~io ?ext ~tick ?fuel p binds = B.run ~io ?ext ~tick ?fuel p binds
let reference ~io ?ext ~tick ?fuel p binds = Ref.run ~io ?ext ~tick ?fuel p binds

(* The continuation-passing form under a scheduler that never continues
   at once: every tick and channel operation queues its continuation,
   and a loop calls them one at a time, as a kernel would.  A
   behaviour that kept state on the stack across a pause, or continued
   twice, would go wrong here while [run] stays right. *)
let deferred ~(io : B.io) ?ext ~tick ?fuel p binds =
  let later = Queue.create () and results = ref None in
  B.run_cps ?ext ?fuel
    {
      B.tick =
        (fun k ->
          tick ();
          Queue.push k later);
      port_in = io.B.port_in;
      port_out = io.B.port_out;
      send =
        (fun ch v k ->
          io.B.send ch v;
          Queue.push k later);
      recv =
        (fun ch k ->
          let v = io.B.recv ch in
          Queue.push (fun () -> k v) later);
    }
    p binds
    (fun r -> results := Some r);
  while not (Queue.is_empty later) do
    if Queue.length later > 1 then failwith "two continuations pending";
    (Queue.pop later) ()
  done;
  match !results with
  | Some r -> r
  | None -> failwith "the behaviour never finished"

let same_as_reference ?ext ?fuel p binds =
  let expected = observe reference ?ext ?fuel p binds in
  observe compiled ?ext ?fuel p binds = expected
  && observe deferred ?ext ?fuel p binds = expected

(* Gen.behavior draws no channels and no extension ops: [enrich] turns
   odd ports into channels and [Xor] into an extension op, so the
   property covers every statement and expression form. *)
let rec enrich_expr = function
  | B.Bin (B.Xor, a, b) -> B.Ext (7, enrich_expr a, enrich_expr b, B.Var "v1")
  | B.Bin (op, a, b) -> B.Bin (op, enrich_expr a, enrich_expr b)
  | B.Idx (a, i) -> B.Idx (a, enrich_expr i)
  | B.Neg e -> B.Neg (enrich_expr e)
  | B.Not e -> B.Not (enrich_expr e)
  | (B.Int _ | B.Var _ | B.Ext _) as e -> e

let rec enrich_stmt = function
  | B.Assign (v, e) -> B.Assign (v, enrich_expr e)
  | B.Store (a, i, e) -> B.Store (a, enrich_expr i, enrich_expr e)
  | B.If (c, t, e) -> B.If (enrich_expr c, enrich t, enrich e)
  | B.While (c, b, n) -> B.While (enrich_expr c, enrich b, n)
  | B.For (v, lo, hi, b) -> B.For (v, enrich_expr lo, enrich_expr hi, enrich b)
  | B.PortOut (p, e) when p land 1 = 1 ->
      B.Send (Printf.sprintf "c%d" p, enrich_expr e)
  | B.PortOut (p, e) -> B.PortOut (p, enrich_expr e)
  | B.PortIn (v, p) when p land 1 = 1 -> B.Recv (v, Printf.sprintf "c%d" p)
  | s -> s

and enrich l = List.map enrich_stmt l

(* 1,000 generated programs, plain or enriched, with or without an
   extension evaluator (without one, an [Ext] raises), under a fuel
   bound that often runs out mid-program, each run directly and
   deferred. *)
let run_matches_reference (seed, fuel) =
  let p = Codesign_fuzz.Gen.behavior (Rng.create seed) in
  let p = if seed land 1 = 1 then { p with B.body = enrich p.B.body } else p in
  let ext = seed land 2 = 0 in
  let fuel = if seed land 4 = 0 then 300_000 else fuel in
  same_as_reference ~ext ~fuel p []

let prop_run_matches_reference =
  QCheck.Test.make ~name:"compiled run = reference interpreter" ~count:1000
    QCheck.(pair (int_bound 1_000_000) (int_bound 5_000))
    run_matches_reference

let test_run_reference_cases () =
  let proc ?(params = []) ?(arrays = []) ?(results = []) body =
    { B.name = "hand"; params; arrays; results; body }
  in
  let logged_ext = B.Ext (2, B.Var "x", B.Int 4, B.Var "y") in
  let cases =
    [
      ( "params, pre-loaded cells, a result never written",
        proc ~params:[ "x"; "y"; "x" ] ~arrays:[ ("t", 3) ]
          ~results:[ "y"; "z"; "s" ]
          [
            B.Assign ("s", B.Bin (B.Add, B.Idx ("t", B.Int 2), B.Var "x"));
            B.Store ("t", B.Int 9, B.Var "y");
            B.PortOut (0, B.Idx ("t", B.Int (-4)));
          ],
        [ ("x", 5); ("t[1]", 2); ("t[2]", 7); ("y", 3); ("t[9]", 1) ],
        None,
        false );
      ( "channels and ports in order",
        proc ~results:[ "a"; "b" ]
          [
            B.Recv ("a", "in");
            B.PortIn ("b", 2);
            B.Send ("out", B.Bin (B.Mul, B.Var "a", B.Var "b"));
            B.PortOut (1, B.Bin (B.Sub, B.Var "b", B.Var "a"));
          ],
        [],
        None,
        false );
      ( "extension operands left to right, in For bounds too",
        proc ~results:[ "x"; "y" ]
          [
            B.Assign ("x", B.Int 3);
            B.Assign ("y", B.Int (-2));
            B.For
              ( "i",
                logged_ext,
                B.Ext (5, B.Var "y", B.Var "x", B.Int 40),
                [ B.Assign ("x", B.Ext (1, B.Var "i", logged_ext, B.Int 1)) ]
              );
          ],
        [],
        None,
        true );
      ( "a body that moves its induction variable",
        proc ~results:[ "i"; "n" ]
          [
            B.For
              ( "i",
                B.Int 0,
                B.Int 10,
                [
                  B.Assign ("n", B.Bin (B.Add, B.Var "n", B.Int 1));
                  B.Assign ("i", B.Bin (B.Add, B.Var "i", B.Int 2));
                ] );
          ],
        [],
        None,
        false );
      ( "fuel runs out on a For iteration's tick",
        proc
          [ B.For ("i", B.Int 0, B.Int 100, [ B.PortOut (0, B.Var "i") ]) ],
        [],
        Some 7,
        false );
      ( "fuel runs out on a While iteration's tick",
        proc
          [
            B.While
              ( B.Int 1,
                [
                  B.PortOut (0, B.Var "x");
                  B.Assign ("x", B.Bin (B.Add, B.Var "x", B.Int 1));
                ],
                1 );
          ],
        [],
        Some 10,
        false );
      ( "an unbound array read fails when it runs, before its index",
        proc
          [
            B.PortOut (0, B.Int 1);
            B.If (B.Var "x", [ B.Assign ("y", B.Idx ("nope", B.Int 0)) ], []);
            B.Assign ("y", B.Idx ("nope", logged_ext));
          ],
        [],
        None,
        true );
      ( "an unbound array store fails after its tick, before its operands",
        proc [ B.PortOut (0, B.Int 1); B.Store ("nope", logged_ext, B.Int 2) ],
        [],
        None,
        true );
      ( "a binding to an unknown array",
        proc ~arrays:[ ("t", 2) ] [ B.PortOut (0, B.Int 1) ],
        [ ("t[0]", 1); ("u[1]", 3) ],
        None,
        false );
      ( "an array of length 0",
        proc ~arrays:[ ("t", 2); ("u", 0) ] [ B.PortOut (0, B.Int 1) ],
        [],
        None,
        false );
      ( "the default extension evaluator raises after the operands",
        proc [ B.PortIn ("x", 1); B.PortOut (0, logged_ext) ],
        [],
        None,
        false );
      ("an empty body", proc ~results:[ "r" ] [], [ ("r", 4) ], None, false);
    ]
  in
  List.iter
    (fun (what, p, binds, fuel, ext) ->
      check Alcotest.bool what true (same_as_reference ~ext ?fuel p binds);
      (* and the error cases do reach the error they name *)
      let error = function Raised m -> m | Results _ -> "no error" in
      let expect m =
        check Alcotest.string what m
          (error (snd (observe compiled ~ext ?fuel p binds)));
        check Alcotest.string (what ^ ", deferred") m
          (error (snd (observe deferred ~ext ?fuel p binds)))
      in
      match what with
      | "fuel runs out on a For iteration's tick"
      | "fuel runs out on a While iteration's tick" ->
          expect "Invalid_argument Behavior.run: fuel exhausted in hand"
      | "an unbound array read fails when it runs, before its index"
      | "an unbound array store fails after its tick, before its operands" ->
          expect "Invalid_argument Behavior.run: unbound array nope"
      | "a binding to an unknown array" ->
          expect "Invalid_argument Behavior.run: unknown array u"
      | "an array of length 0" ->
          expect "Invalid_argument Behavior.run: array of length <= 0"
      | "the default extension evaluator raises after the operands" ->
          expect
            "Invalid_argument Behavior.run: no evaluator for extension \
             opcode 2"
      | _ -> expect "no error")
    cases

let test_elaborate_structure () =
  let p =
    {
      B.name = "elab";
      params = [ "n" ];
      arrays = [];
      results = [ "s" ];
      body =
        [
          B.Assign ("s", B.Int 0);
          B.For
            ( "i",
              B.Int 0,
              B.Int 10,
              [ B.Assign ("s", B.Bin (B.Add, B.Var "s", B.Var "i")) ] );
        ];
    }
  in
  let g = B.elaborate p in
  (* loop body block must carry trip = 10 *)
  let body_block =
    List.find
      (fun b -> b.C.trip = 10)
      g.C.blocks
  in
  check Alcotest.bool "body has add" true
    (List.exists (fun o -> o.C.opcode = C.Add) body_block.C.ops);
  (* op mix is trip-weighted *)
  check Alcotest.int "adds" 10 (List.assoc "add" (C.op_mix g))

let test_elaborate_if_blocks () =
  let p =
    {
      B.name = "br";
      params = [ "c" ];
      arrays = [];
      results = [];
      body =
        [
          B.If
            ( B.Var "c",
              [ B.Assign ("x", B.Int 1) ],
              [ B.Assign ("x", B.Int 2) ] );
        ];
    }
  in
  let g = B.elaborate p in
  check Alcotest.bool ">= 3 blocks" true (List.length g.C.blocks >= 3);
  check Alcotest.bool "has ctrl edges" true (List.length g.C.ctrl >= 2)

let test_vars_of () =
  let p =
    {
      B.name = "v";
      params = [ "a" ];
      arrays = [];
      results = [];
      body =
        [
          B.Assign ("b", B.Var "a");
          B.If (B.Var "b", [ B.Assign ("c", B.Int 1) ], []);
        ];
    }
  in
  check (Alcotest.list Alcotest.string) "vars" [ "a"; "b"; "c" ] (B.vars_of p)

let test_pp_behavior () =
  let p =
    {
      B.name = "pp";
      params = [ "a" ];
      arrays = [];
      results = [];
      body = [ B.Assign ("x", B.Bin (B.Add, B.Var "a", B.Int 1)) ];
    }
  in
  let s = Format.asprintf "%a" B.pp p in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "mentions proc" true (contains s "proc pp");
  check Alcotest.bool "mentions stmt" true (contains s "x = (a + 1);")

(* Differential property: elaborated CDFG op mix counts never negative and
   static ops >= number of assignments. *)
let prop_elaborate_wellformed =
  QCheck.Test.make ~name:"elaborate produces a valid CDFG" ~count:100
    QCheck.(int_range 0 6)
    (fun k ->
      let body =
        List.init k (fun i ->
            B.Assign (Printf.sprintf "v%d" i, B.Bin (B.Add, B.Int i, B.Int 1)))
      in
      let p =
        { B.name = "gen"; params = []; arrays = []; results = []; body }
      in
      let g = B.elaborate p in
      (* Cdfg.make validates internally; just sanity-check op counts *)
      C.total_ops g >= k)

(* ------------------------------------------------------------------ *)
(* Process_network                                                     *)
(* ------------------------------------------------------------------ *)

module Pn = Process_network

let producer =
  {
    B.name = "producer";
    params = [];
    arrays = [];
    results = [];
    body =
      [ B.For ("i", B.Int 0, B.Int 4, [ B.Send ("data", B.Var "i") ]) ];
  }

let consumer =
  {
    B.name = "consumer";
    params = [];
    arrays = [];
    results = [ "acc" ];
    body =
      [
        B.Assign ("acc", B.Int 0);
        B.For
          ( "i",
            B.Int 0,
            B.Int 4,
            [
              B.Recv ("v", "data");
              B.Assign ("acc", B.Bin (B.Add, B.Var "acc", B.Var "v"));
            ] );
      ];
  }

let net () =
  Pn.make ~name:"pc"
    [ (producer, Pn.Sw); (consumer, Pn.Hw) ]
    [ { Pn.cname = "data"; src = "producer"; dst = "consumer"; depth = 2; latency = 0 } ]

let test_pn_basic () =
  let n = net () in
  check Alcotest.int "procs" 2 (List.length n.Pn.procs);
  check Alcotest.int "hw procs" 1 (List.length (Pn.hw_procs n));
  check Alcotest.bool "consumer in hw" true
    (snd (Pn.find_proc n "consumer") = Pn.Hw);
  let n2 = Pn.remap n [ ("consumer", Pn.Sw) ] in
  check Alcotest.bool "consumer remapped" true
    (snd (Pn.find_proc n2 "consumer") = Pn.Sw);
  check Alcotest.int "no hw procs after remap" 0
    (List.length (Pn.hw_procs n2))

let test_pn_validation () =
  (try
     Pn.make
       [ (producer, Pn.Sw) ]
       [ { Pn.cname = "data"; src = "producer"; dst = "nobody"; depth = 0; latency = 0 } ]
     |> ignore;
     fail "unknown endpoint"
   with Invalid_argument _ -> ());
  (try
     Pn.make [ (producer, Pn.Sw); (consumer, Pn.Hw) ] [] |> ignore;
     fail "undeclared channel"
   with Invalid_argument _ -> ());
  try
    Pn.make
      [ (producer, Pn.Sw); (consumer, Pn.Hw) ]
      [ { Pn.cname = "data"; src = "consumer"; dst = "producer"; depth = 0; latency = 0 } ]
    |> ignore;
    fail "wrong direction"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "codesign_ir"
    [
      ( "graph_algo",
        [
          Alcotest.test_case "basic accessors" `Quick test_graph_basic;
          Alcotest.test_case "invalid input" `Quick test_graph_invalid;
          Alcotest.test_case "topo sort" `Quick test_topo_sort;
          Alcotest.test_case "topo deterministic" `Quick
            test_topo_deterministic;
          Alcotest.test_case "sources/sinks" `Quick test_sources_sinks;
          Alcotest.test_case "longest path" `Quick test_longest_path;
          Alcotest.test_case "critical path" `Quick test_critical_path;
          Alcotest.test_case "cyclic raises" `Quick
            test_critical_path_cyclic_raises;
          QCheck_alcotest.to_alcotest prop_topo_respects_edges;
          QCheck_alcotest.to_alcotest prop_longest_path_ge_weight;
          QCheck_alcotest.to_alcotest prop_critical_path_is_valid_path;
        ] );
      ( "task_graph",
        [
          Alcotest.test_case "basic" `Quick test_tg_basic;
          Alcotest.test_case "validation" `Quick test_tg_validation;
          Alcotest.test_case "defaults" `Quick test_tg_defaults;
          Alcotest.test_case "scale deadline" `Quick test_tg_scale_deadline;
          Alcotest.test_case "edge views" `Quick test_tg_edges_views;
        ] );
      ( "cdfg",
        [
          Alcotest.test_case "basic" `Quick test_cdfg_basic;
          Alcotest.test_case "validation" `Quick test_cdfg_validation;
          Alcotest.test_case "trip weighting" `Quick test_cdfg_trip_weighting;
        ] );
      ( "behavior",
        [
          Alcotest.test_case "arithmetic" `Quick test_behavior_arith;
          Alcotest.test_case "control flow" `Quick test_behavior_control;
          Alcotest.test_case "arrays" `Quick test_behavior_arrays;
          Alcotest.test_case "array clamping" `Quick test_behavior_array_clamp;
          Alcotest.test_case "port io" `Quick test_behavior_io;
          Alcotest.test_case "fuel bound" `Quick test_behavior_fuel;
          Alcotest.test_case "array binding" `Quick
            test_behavior_array_binding;
          Alcotest.test_case "elaborate loop trips" `Quick
            test_elaborate_structure;
          Alcotest.test_case "elaborate branches" `Quick
            test_elaborate_if_blocks;
          Alcotest.test_case "vars_of" `Quick test_vars_of;
          Alcotest.test_case "pretty print" `Quick test_pp_behavior;
          QCheck_alcotest.to_alcotest prop_elaborate_wellformed;
        ] );
      ( "behavior_vs_ref",
        [
          QCheck_alcotest.to_alcotest prop_run_matches_reference;
          Alcotest.test_case "hand cases = reference" `Quick
            test_run_reference_cases;
        ] );
      ( "process_network",
        [
          Alcotest.test_case "basic" `Quick test_pn_basic;
          Alcotest.test_case "validation" `Quick test_pn_validation;
        ] );
    ]
