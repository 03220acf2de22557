(* Tests for the codesign_sim library: event queue, kernel, signals,
   channels. *)

open Codesign_sim
module K = Kernel
module Q = Event_queue

let check = Alcotest.check
let fail = Alcotest.fail

(* ------------------------------------------------------------------ *)
(* Event_queue                                                         *)
(* ------------------------------------------------------------------ *)

let test_q_order () =
  let q = Q.create () in
  let log = ref [] in
  let ev tag () = log := tag :: !log in
  Q.push q ~time:5 (ev "c");
  Q.push q ~time:1 (ev "a");
  Q.push q ~time:3 (ev "b");
  let rec drain () =
    match Q.pop q with
    | None -> ()
    | Some (_, f) ->
        f ();
        drain ()
  in
  drain ();
  check (Alcotest.list Alcotest.string) "order" [ "a"; "b"; "c" ]
    (List.rev !log)

let test_q_stability () =
  (* same timestamp: insertion order *)
  let q = Q.create () in
  let log = ref [] in
  for i = 0 to 9 do
    Q.push q ~time:7 (fun () -> log := i :: !log)
  done;
  let rec drain () =
    match Q.pop q with
    | None -> ()
    | Some (_, f) ->
        f ();
        drain ()
  in
  drain ();
  check (Alcotest.list Alcotest.int) "fifo at same time"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !log)

let test_q_stress_sorted () =
  (* pseudo-random pushes come out sorted by time *)
  let q = Q.create () in
  let seed = ref 12345 in
  let next () =
    seed := (!seed * 1103515245) + 12345;
    (!seed lsr 7) land 0xFFFF
  in
  for _ = 1 to 500 do
    Q.push q ~time:(next ()) ignore
  done;
  let last = ref (-1) in
  let rec drain n =
    match Q.pop q with
    | None -> n
    | Some (t, _) ->
        if t < !last then fail "out of order";
        last := t;
        drain (n + 1)
  in
  check Alcotest.int "count" 500 (drain 0);
  check Alcotest.int "pushed_total" 500 (Q.pushed_total q)

let test_q_10k_sorted_fifo () =
  (* 10k pseudo-random pushes pop in nondecreasing time, FIFO among
     equal timestamps *)
  let n = 10_000 in
  let q = Q.create () in
  let seed = ref 2026 in
  let next () =
    seed := ((!seed * 1103515245) + 12345) land 0x3FFFFFFF;
    !seed mod 97 (* few distinct times -> many same-time collisions *)
  in
  let times = Array.init n (fun _ -> next ()) in
  let popped = ref [] in
  for i = 0 to n - 1 do
    Q.push q ~time:times.(i) (fun () -> popped := i :: !popped)
  done;
  let rec drain () =
    match Q.pop q with
    | None -> ()
    | Some (t, f) ->
        f ();
        (match !popped with
        | i :: _ -> check Alcotest.int "pop time = push time" times.(i) t
        | [] -> fail "thunk did not record");
        drain ()
  in
  drain ();
  let order = List.rev !popped in
  check Alcotest.int "all popped" n (List.length order);
  ignore
    (List.fold_left
       (fun prev i ->
         (match prev with
         | Some j ->
             if times.(j) > times.(i) then fail "time decreased";
             if times.(j) = times.(i) && j > i then
               fail "FIFO violated among equal timestamps"
         | None -> ());
         Some i)
       None order)

let prop_q_sorted_fifo =
  QCheck.Test.make ~name:"event queue pops sorted, fifo ties" ~count:100
    QCheck.(list_of_size Gen.(int_range 0 200) (int_range 0 20))
    (fun times ->
      let q = Q.create () in
      let popped = ref [] in
      List.iteri
        (fun i t -> Q.push q ~time:t (fun () -> popped := (t, i) :: !popped))
        times;
      let rec drain () =
        match Q.pop q with
        | None -> ()
        | Some (_, f) ->
            f ();
            drain ()
      in
      drain ();
      let l = List.rev !popped in
      let rec ok = function
        | (t1, i1) :: ((t2, i2) :: _ as rest) ->
            (t1 < t2 || (t1 = t2 && i1 < i2)) && ok rest
        | _ -> true
      in
      List.length l = List.length times && ok l)

(* Two snapshots are the same when they are structurally equal and
   their thunks are physically shared: [compare] takes physically equal
   values as equal without looking inside, and raises on two distinct
   closures. *)
let same_snapshot a b = try compare a b = 0 with Invalid_argument _ -> false

(* 10k pseudo-random operations against a sorted-list model of the
   (time, key, seq) order and against a twin queue: ordinary and keyed
   pushes colliding on few timestamps, [count_push], [pop_into] with
   random limits and [pop], over a backlog that outgrows the initial
   64 slots.  Now and then [q] alone is snapshotted, perturbed and
   restored; the twin never is.  The twin mirrors each [count_push] as
   a push and pop of an event that precedes every queued one, which by
   the contract no snapshot can tell apart (and which leaves the heap
   layout as it was). *)
let test_q_interleaved_model () =
  let q = Q.create () and twin = Q.create () in
  let seed = ref 77 in
  let next bound =
    seed := ((!seed * 1103515245) + 12345) land 0x3FFFFFFF;
    !seed mod bound
  in
  (* (time, key, seq, tag), sorted by (time, key, seq) *)
  let model = ref [] in
  let insert ((t, k, s, _) as e) =
    let rec go = function
      | ((t', k', s', _) as x) :: rest
        when t' < t || (t' = t && (k' < k || (k' = k && s' < s))) ->
          x :: go rest
      | l -> e :: l
    in
    model := go !model
  in
  let fired = ref 0 in
  let tags = ref 0 and seq = ref 0 and keyed = ref 0 and peak = ref 0 in
  let fresh_thunk () =
    incr tags;
    let tag = !tags in
    (tag, fun () -> fired := tag)
  in
  let same what =
    check Alcotest.bool what true (same_snapshot (Q.snapshot q) (Q.snapshot twin))
  in
  let slot = Q.slot () and twin_slot = Q.slot () in
  (* pop the model's head from both queues, through [pop_into] or [pop] *)
  let expect_pop ~via (mt, _, _, tag) =
    let t =
      match via with
      | `Pop_into limit ->
          check Alcotest.bool "pop_into twin" true (Q.pop_into twin ~limit twin_slot);
          twin_slot.Q.s_thunk ();
          check Alcotest.int "twin fires the model's event" tag !fired;
          check Alcotest.bool "pop_into" true (Q.pop_into q ~limit slot);
          slot.Q.s_thunk ();
          slot.Q.s_time
      | `Pop -> (
          (match Q.pop twin with
          | Some (_, f) -> f ()
          | None -> fail "twin empty but model is not");
          check Alcotest.int "twin fires the model's event" tag !fired;
          match Q.pop q with
          | Some (t, f) ->
              f ();
              t
          | None -> fail "queue empty but model is not")
    in
    check Alcotest.int "pop fires the model's event" tag !fired;
    check Alcotest.int "reported pop time" mt t
  in
  let perturb () =
    for _ = 0 to next 40 do
      match next 4 with
      | 0 -> Q.push q ~time:(next 60) (fun () -> fired := -1)
      | 1 ->
          Q.push_keyed q ~time:(next 60) ~key:(next 4) ~seq:(20_000 + next 1000)
            (fun () -> fired := -1)
      | 2 -> Q.count_push q
      | _ -> ignore (Q.pop q)
    done
  in
  for _ = 1 to 10_000 do
    (match next 20 with
    | n when n < 7 ->
        let time = 1 + next 50 in
        let tag, f = fresh_thunk () in
        insert (time, max_int, !seq, tag);
        incr seq;
        Q.push q ~time f;
        Q.push twin ~time f
    | n when n < 10 ->
        (* keyed seqs are unique and unrelated to insertion order *)
        let time = 1 + next 50 and key = next 4 in
        let s = !keyed * 7919 mod 10007 in
        incr keyed;
        let tag, f = fresh_thunk () in
        insert (time, key, s, tag);
        Q.push_keyed q ~time ~key ~seq:s f;
        Q.push_keyed twin ~time ~key ~seq:s f
    | 10 ->
        incr seq;
        Q.count_push q;
        Q.push twin ~time:0 ignore;
        ignore (Q.pop twin);
        same "count_push = push and pop of the next event"
    | n when n < 15 -> (
        let limit = next 60 in
        match !model with
        | ((mt, _, _, _) as e) :: rest when mt <= limit ->
            model := rest;
            expect_pop ~via:(`Pop_into limit) e
        | _ ->
            let before = Q.snapshot q in
            check Alcotest.bool "pop_into past the limit" false
              (Q.pop_into q ~limit slot);
            check Alcotest.bool "a false pop_into leaves the queue as it was"
              true
              (same_snapshot before (Q.snapshot q));
            check Alcotest.bool "twin agrees" false
              (Q.pop_into twin ~limit twin_slot))
    | n when n < 19 -> (
        match !model with
        | e :: rest ->
            model := rest;
            expect_pop ~via:`Pop e
        | [] ->
            check Alcotest.bool "empty pop" true (Q.pop q = None && Q.pop twin = None))
    | _ ->
        let snap = Q.snapshot q in
        perturb ();
        Q.restore q snap;
        same "restore rewinds to the snapshot");
    peak := max !peak (Q.size q)
  done;
  check Alcotest.bool "backlog outgrew the initial 64 slots" true (!peak > 64);
  List.iter (expect_pop ~via:`Pop) !model;
  check Alcotest.bool "both drained" true (Q.is_empty q && Q.is_empty twin);
  check Alcotest.int "pushed totals agree" (Q.pushed_total twin) (Q.pushed_total q)

let test_q_negative () =
  let q = Q.create () in
  try
    Q.push q ~time:(-1) ignore;
    fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_q_peek () =
  let q = Q.create () in
  check (Alcotest.option Alcotest.int) "empty" None (Q.peek_time q);
  Q.push q ~time:9 ignore;
  check (Alcotest.option Alcotest.int) "peek" (Some 9) (Q.peek_time q);
  check Alcotest.int "size" 1 (Q.size q);
  check Alcotest.bool "not empty" false (Q.is_empty q)

let test_q_pop_into () =
  (* the allocation-free drain: bounded pops honour the limit and leave
     past-limit events queued; one slot serves the whole loop *)
  let q = Q.create () in
  check Alcotest.int "min_time empty" max_int (Q.min_time q);
  let log = ref [] in
  List.iter
    (fun (t, tag) -> Q.push q ~time:t (fun () -> log := tag :: !log))
    [ (5, "c"); (1, "a"); (8, "d"); (1, "b"); (12, "e") ];
  check Alcotest.int "min_time" 1 (Q.min_time q);
  let slot = Q.slot () in
  while Q.pop_into q ~limit:8 slot do
    slot.Q.s_thunk ()
  done;
  check
    (Alcotest.list Alcotest.string)
    "drained up to limit inclusive, stable at equal times"
    [ "a"; "b"; "c"; "d" ] (List.rev !log);
  check Alcotest.int "past-limit event remains" 1 (Q.size q);
  check Alcotest.bool "blocked pop leaves queue untouched" false
    (Q.pop_into q ~limit:11 slot);
  check Alcotest.int "still there" 1 (Q.size q);
  check Alcotest.bool "unbounded drain" true
    (Q.pop_into q ~limit:max_int slot);
  check Alcotest.int "slot time" 12 slot.Q.s_time;
  check Alcotest.bool "empty" true (Q.is_empty q)

(* ------------------------------------------------------------------ *)
(* Kernel                                                              *)
(* ------------------------------------------------------------------ *)

let test_kernel_wait () =
  let k = K.create () in
  let log = ref [] in
  K.spawn ~name:"p" k (fun () ->
      log := (K.now k, "start") :: !log;
      K.wait 10;
      log := (K.now k, "mid") :: !log;
      K.wait 5;
      log := (K.now k, "end") :: !log);
  let st = K.run k in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
    "timeline"
    [ (0, "start"); (10, "mid"); (15, "end") ]
    (List.rev !log);
  check Alcotest.int "end_time" 15 st.K.end_time;
  check Alcotest.int "spawned" 1 st.K.spawned;
  check Alcotest.int "activations" 3 st.K.activations

let test_kernel_interleave () =
  (* two processes with different periods interleave deterministically *)
  let k = K.create () in
  let log = ref [] in
  K.spawn ~name:"a" k (fun () ->
      for _ = 1 to 3 do
        log := ("a", K.now k) :: !log;
        K.wait 4
      done);
  K.spawn ~name:"b" k (fun () ->
      for _ = 1 to 4 do
        log := ("b", K.now k) :: !log;
        K.wait 3
      done);
  ignore (K.run k);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "interleaving"
    [
      ("a", 0); ("b", 0); ("b", 3); ("a", 4); ("b", 6); ("a", 8); ("b", 9);
    ]
    (List.rev !log)

let test_kernel_until () =
  let k = K.create () in
  let count = ref 0 in
  K.spawn k (fun () ->
      let continue_ = ref true in
      while !continue_ do
        incr count;
        K.wait 10;
        if K.now k > 1000 then continue_ := false
      done);
  let st = K.run ~bound:(K.Until 95) k in
  check Alcotest.int "activations bounded" 10 !count;
  check Alcotest.bool "time <= until" true (st.K.end_time <= 95);
  (* resuming continues where we left off *)
  let st2 = K.run ~bound:(K.Until 205) k in
  check Alcotest.int "more activations" 21 !count;
  check Alcotest.bool "time advanced" true (st2.K.end_time > st.K.end_time)

let test_kernel_deadlock () =
  let k = K.create () in
  K.spawn ~name:"stuck" k (fun () ->
      K.suspend ~register:(fun _resume -> ()));
  (try
     ignore (K.run k);
     fail "expected Deadlock"
   with K.Deadlock names ->
     check Alcotest.string "names" "stuck" names);
  (* a Quiesce run accepts the same situation *)
  let k2 = K.create () in
  K.spawn ~name:"stuck" k2 (fun () ->
      K.suspend ~register:(fun _resume -> ()));
  ignore (K.run ~bound:K.Quiesce k2)

let test_kernel_bounded_deadlock_audit () =
  (* a bounded run never raises, but the blocked processes are
     auditable via blocked_non_daemon: a drained queue with a blocked
     non-daemon is the deadlock an unbounded run reports *)
  let k = K.create () in
  K.spawn ~name:"starved" k (fun () ->
      K.suspend ~register:(fun _resume -> ()));
  K.spawn ~name:"watcher" ~daemon:true k (fun () ->
      K.suspend ~register:(fun _resume -> ()));
  let st = K.run ~bound:(K.Until 50) k in
  check Alcotest.int "clock coasted to bound" 50 st.K.end_time;
  check Alcotest.bool "queue drained" false (K.has_pending_events k);
  check
    (Alcotest.list Alcotest.string)
    "audit names the stuck non-daemon" [ "starved" ]
    (K.blocked_non_daemon k)

let test_kernel_not_in_process () =
  (try
     K.wait 5;
     fail "expected Not_in_process"
   with K.Not_in_process -> ());
  try
    K.yield ();
    fail "expected Not_in_process"
  with K.Not_in_process -> ()

let test_kernel_negative_wait () =
  let k = K.create () in
  let saw = ref false in
  K.spawn k (fun () ->
      try K.wait (-1) with Invalid_argument _ -> saw := true);
  ignore (K.run k);
  check Alcotest.bool "raised inside process" true !saw

let test_kernel_yield_ordering () =
  (* yield lets already-scheduled same-time events run first *)
  let k = K.create () in
  let log = ref [] in
  K.spawn ~name:"first" k (fun () ->
      log := "first.a" :: !log;
      K.yield ();
      log := "first.b" :: !log);
  K.spawn ~name:"second" k (fun () -> log := "second" :: !log);
  ignore (K.run k);
  check (Alcotest.list Alcotest.string) "order"
    [ "first.a"; "second"; "first.b" ]
    (List.rev !log)

let test_kernel_at_callback () =
  let k = K.create () in
  let fired = ref (-1) in
  K.at k ~time:42 (fun () -> fired := K.now k);
  ignore (K.run k);
  check Alcotest.int "fired at 42" 42 !fired;
  try
    K.at k ~time:1 ignore;
    fail "expected Invalid_argument (past)"
  with Invalid_argument _ -> ()

let test_kernel_self_name () =
  let k = K.create () in
  let name = ref "" in
  K.spawn ~name:"zeta" k (fun () -> name := K.self_name ());
  ignore (K.run k);
  check Alcotest.string "self name" "zeta" !name;
  check Alcotest.string "outside" "?" (K.self_name ())

let test_kernel_trace () =
  let k = K.create () in
  let log = ref [] in
  K.trace k (fun t m -> log := (t, m) :: !log);
  K.spawn k (fun () ->
      K.emit k "hello";
      K.wait 7;
      K.emit k "world");
  ignore (K.run k);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
    "trace"
    [ (0, "hello"); (7, "world") ]
    (List.rev !log)

let test_kernel_until_idle_time () =
  (* an Until run advances time to the bound when the queue drains early *)
  let k = K.create () in
  K.spawn k (fun () -> K.wait 3);
  let st = K.run ~bound:(K.Until 50) k in
  check Alcotest.int "advanced to until" 50 st.K.end_time

let test_kernel_until_pending_clock () =
  (* regression: with future events still queued past the bound, the
     clock must land exactly on the bound, so that work added between
     bounded runs is timed from the bound, not from the last event *)
  let k = K.create () in
  K.spawn k (fun () -> K.wait 100);
  let st = K.run ~bound:(K.Until 30) k in
  check Alcotest.int "clock at bound despite queued future" 30 st.K.end_time;
  check Alcotest.int "now agrees" 30 (K.now k);
  let fired = ref (-1) in
  K.spawn k (fun () ->
      K.wait 5;
      fired := K.now k);
  ignore (K.run ~bound:(K.Until 60) k);
  check Alcotest.int "subsequent wait timed from the bound" 35 !fired;
  (* the original process still completes at its own schedule *)
  let st3 = K.run ~bound:(K.Until 200) k in
  check Alcotest.int "original event fired on time" 200 st3.K.end_time

let test_kernel_daemon_quiescent () =
  (* regression: blocked daemon processes do not count as deadlock *)
  let k = K.create () in
  K.spawn ~name:"watcher" ~daemon:true k (fun () ->
      K.suspend ~register:(fun _resume -> ()));
  K.spawn ~name:"work" k (fun () -> K.wait 5);
  let st = K.run k in
  (* no Deadlock raised *)
  check Alcotest.int "ran to completion" 5 st.K.end_time

let test_kernel_daemon_mixed_deadlock () =
  (* a stuck non-daemon still deadlocks, and only its name is listed *)
  let k = K.create () in
  K.spawn ~name:"watcher" ~daemon:true k (fun () ->
      K.suspend ~register:(fun _resume -> ()));
  K.spawn ~name:"stuck" k (fun () -> K.suspend ~register:(fun _resume -> ()));
  try
    ignore (K.run k);
    fail "expected Deadlock"
  with K.Deadlock names -> check Alcotest.string "names" "stuck" names

(* qcheck: N processes each waiting random deltas always terminate with
   end_time = max total delta. *)
let prop_kernel_endtime =
  QCheck.Test.make ~name:"end time = max process span" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 5) (list_of_size Gen.(int_range 0 6) (int_range 0 20)))
    (fun delays_per_proc ->
      let k = K.create () in
      List.iter
        (fun delays ->
          K.spawn k (fun () -> List.iter (fun d -> K.wait d) delays))
        delays_per_proc;
      let st = K.run k in
      let expect =
        List.fold_left
          (fun acc ds -> max acc (List.fold_left ( + ) 0 ds))
          0 delays_per_proc
      in
      st.K.end_time = expect)

(* ------------------------------------------------------------------ *)
(* In-place waits: a stop-less run advances the clock in place when a   *)
(* waiting process is the next event; a run with [stop] queues every   *)
(* wait.  The two must be indistinguishable.                           *)
(* ------------------------------------------------------------------ *)

(* A never-firing [stop] makes [run] queue every wait. *)
let run_path ~queued ?bound k =
  if queued then K.run ?bound ~stop:(fun () -> false) k else K.run ?bound k

let stats_t =
  Alcotest.testable
    (fun ppf (s : K.stats) ->
      Format.fprintf ppf
        "{events=%d; scheduled=%d; activations=%d; spawned=%d; end_time=%d}"
        s.K.events s.K.scheduled s.K.activations s.K.spawned s.K.end_time)
    ( = )

type action = Wait of int | Yield | At of int | Send of int | Recv

let show_action = function
  | Wait d -> Printf.sprintf "wait %d" d
  | Yield -> "yield"
  | At d -> Printf.sprintf "at +%d" d
  | Send v -> Printf.sprintf "send %d" v
  | Recv -> "recv"

(* Process scripts, an optional [Until] time, and the latency of the one
   depth-2 channel every process shares (0: a bounded FIFO whose sends
   can block; 1-2: a delay line delivering through the arrival lane). *)
let arb_world =
  let open QCheck in
  let action =
    Gen.frequency
      [
        (5, Gen.map (fun d -> Wait d) (Gen.int_range 0 5));
        (1, Gen.return Yield);
        (1, Gen.map (fun d -> At d) (Gen.int_range 0 5));
        (1, Gen.map (fun v -> Send v) (Gen.int_range 0 99));
        (1, Gen.return Recv);
      ]
  in
  let gen =
    Gen.triple
      (Gen.list_size (Gen.int_range 1 4)
         (Gen.list_size (Gen.int_range 0 10) action))
      (Gen.opt (Gen.int_range 0 40))
      (Gen.int_range 0 2)
  in
  let print (procs, until, latency) =
    Printf.sprintf "until=%s latency=%d\n%s"
      (match until with None -> "-" | Some u -> string_of_int u)
      latency
      (String.concat "\n"
         (List.mapi
            (fun i script ->
              Printf.sprintf "p%d: %s" i
                (String.concat "; " (List.map show_action script)))
            procs))
  in
  make ~print gen

(* Run a world and observe everything: every action with its time, the
   run's outcome, the kernel's stats, its clock and the domain totals. *)
let run_world ~queued (procs, until, latency) =
  let k = K.create () in
  let ch = Channel.create ~depth:2 ~latency k () in
  let log = ref [] in
  let note tag = log := (K.now k, tag) :: !log in
  List.iteri
    (fun i script ->
      K.spawn ~name:(Printf.sprintf "p%d" i) k (fun () ->
          List.iteri
            (fun j a ->
              let tag = Printf.sprintf "p%d.%d" i j in
              match a with
              | Wait d ->
                  K.wait d;
                  note tag
              | Yield ->
                  K.yield ();
                  note tag
              | At d -> K.at k ~time:(K.now k + d) (fun () -> note (tag ^ "@"))
              | Send v ->
                  Channel.send ch v;
                  note tag
              | Recv -> note (Printf.sprintf "%s<%d" tag (Channel.recv ch)))
            script))
    procs;
  let before = K.domain_totals () in
  let outcome =
    match run_path ~queued ?bound:(Option.map (fun u -> K.Until u) until) k with
    | _ -> "drained"
    | exception K.Deadlock names -> "deadlock " ^ names
  in
  let totals = K.diff_totals ~after:(K.domain_totals ()) ~before in
  (List.rev !log, outcome, K.stats k, K.now k, totals)

let prop_in_place_equals_queued =
  QCheck.Test.make ~name:"in-place waits = queued waits" ~count:300 arb_world
    (fun world -> run_world ~queued:false world = run_world ~queued:true world)

let log_t = Alcotest.(list (pair int string))

let test_in_place_tie () =
  (* a wake that ties with a queued event still runs after it, in
     schedule order *)
  let go ~queued =
    let k = K.create () in
    let log = ref [] in
    let note tag = log := (K.now k, tag) :: !log in
    K.spawn ~name:"early" k (fun () ->
        K.wait 3;
        note "early");
    K.spawn ~name:"late" k (fun () ->
        K.at k ~time:5 (fun () -> note "at");
        K.wait 3;
        note "late";
        K.wait 2;
        note "late again");
    let st = run_path ~queued k in
    (List.rev !log, st)
  in
  let log, st = go ~queued:false in
  check log_t "tied events run in schedule order"
    [ (3, "early"); (3, "late"); (5, "at"); (5, "late again") ]
    log;
  check stats_t "same stats as the queued path" (snd (go ~queued:true)) st

let test_in_place_past_until () =
  (* a wake past an [Until] bound stays queued and the clock coasts to it *)
  let k = K.create () in
  let woke = ref (-1) in
  K.spawn k (fun () ->
      K.wait 2;
      K.wait 5;
      woke := K.now k);
  let st = K.run ~bound:(K.Until 4) k in
  check Alcotest.int "clock at the bound" 4 st.K.end_time;
  check Alcotest.bool "wake still queued" true (K.has_pending_events k);
  check Alcotest.int "not woken yet" (-1) !woke;
  check Alcotest.int "next event is the wake" 7 (K.next_event_time k);
  ignore (K.run k);
  check Alcotest.int "woke on time" 7 !woke

let test_in_place_at_callback () =
  (* [wait] in an [at] callback is still refused while a process of the
     same kernel advances in place around it *)
  let k = K.create () in
  let refused = ref false in
  K.spawn k (fun () ->
      for _ = 1 to 10 do
        K.wait 1
      done);
  K.at k ~time:4 (fun () ->
      try K.wait 1 with K.Not_in_process -> refused := true);
  let st = K.run k in
  check Alcotest.bool "Not_in_process" true !refused;
  check Alcotest.int "the process still finished" 10 st.K.end_time

let test_in_place_bad_delays () =
  (* a negative delay is raised inside the process; a delay whose wake
     time overflows fails the run with Invalid_argument — on both paths *)
  List.iter
    (fun queued ->
      let k = K.create () in
      let saw = ref false in
      K.spawn k (fun () ->
          K.wait 1;
          try K.wait (-1) with Invalid_argument _ -> saw := true);
      ignore (run_path ~queued k);
      check Alcotest.bool "negative delay raised inside process" true !saw;
      let k = K.create () in
      K.spawn k (fun () ->
          K.wait 5;
          K.wait max_int);
      match run_path ~queued k with
      | _ -> fail "expected Invalid_argument for an overflowing wake"
      | exception Invalid_argument _ ->
          check Alcotest.int "clock left before the overflow" 5 (K.now k))
    [ false; true ]

let test_in_place_stats_in_process () =
  (* [stats] read inside a process counts the in-place events *)
  let go ~queued =
    let k = K.create () in
    let seen = ref [] in
    K.spawn k (fun () ->
        for _ = 1 to 3 do
          K.wait 1;
          seen := K.stats k :: !seen
        done);
    ignore (run_path ~queued k);
    List.rev !seen
  in
  let seen = go ~queued:false in
  check
    Alcotest.(list (triple int int int))
    "events, activations, scheduled after each wait"
    [ (2, 2, 2); (3, 3, 3); (4, 4, 4) ]
    (List.map (fun s -> (s.K.events, s.K.activations, s.K.scheduled)) seen);
  check (Alcotest.list stats_t) "same as the queued path" (go ~queued:true)
    seen

let test_in_place_nested_kernel () =
  (* a process that runs a second kernel to completion and then waits
     again leaves both kernels as the queued path does *)
  let go ~queued =
    let run k = run_path ~queued k in
    let outer = K.create () and inner = K.create () in
    let log = ref [] in
    K.spawn ~name:"host" outer (fun () ->
        K.wait 2;
        K.spawn ~name:"guest" inner (fun () ->
            K.wait 4;
            K.wait 1;
            log := ("guest", K.now inner) :: !log);
        ignore (run inner);
        K.wait 3;
        log := ("host", K.now outer) :: !log);
    K.spawn ~name:"peer" outer (fun () ->
        K.wait 4;
        log := ("peer", K.now outer) :: !log);
    let st = run outer in
    (List.rev !log, st, K.stats inner)
  in
  let log, outer, inner = go ~queued:false in
  check
    Alcotest.(list (pair string int))
    "timeline"
    [ ("guest", 5); ("peer", 4); ("host", 5) ]
    log;
  let _, outer', inner' = go ~queued:true in
  check stats_t "outer kernel" outer' outer;
  check stats_t "inner kernel" inner' inner

(* ------------------------------------------------------------------ *)
(* Signal                                                              *)
(* ------------------------------------------------------------------ *)

let test_signal_write_wake () =
  let k = K.create () in
  let s = Signal.create k 0 in
  let seen = ref (-1) in
  K.spawn ~name:"reader" k (fun () -> seen := Signal.await_change s);
  K.spawn ~name:"writer" k (fun () ->
      K.wait 5;
      Signal.write s 99);
  ignore (K.run k);
  check Alcotest.int "woken with value" 99 !seen;
  check Alcotest.int "write count" 1 (Signal.write_count s)

let test_signal_no_wake_on_same_value () =
  let k = K.create () in
  let s = Signal.create k 7 in
  Signal.write s 7;
  check Alcotest.int "no waking write" 0 (Signal.write_count s);
  Signal.pulse s 7;
  check Alcotest.int "pulse wakes" 1 (Signal.write_count s)

let test_signal_await_predicate () =
  let k = K.create () in
  let s = Signal.create k 0 in
  let hit = ref 0 in
  K.spawn ~name:"waiter" k (fun () -> hit := Signal.await s (fun v -> v >= 3));
  K.spawn ~name:"writer" k (fun () ->
      for i = 1 to 5 do
        K.wait 1;
        Signal.write s i
      done);
  ignore (K.run ~bound:K.Quiesce k);
  check Alcotest.int "first satisfying value" 3 !hit

let test_signal_await_immediate () =
  let k = K.create () in
  let s = Signal.create k 10 in
  let hit = ref 0 in
  K.spawn k (fun () -> hit := Signal.await s (fun v -> v = 10));
  ignore (K.run k);
  check Alcotest.int "immediate" 10 !hit

let test_signal_posedge () =
  let k = K.create () in
  let clk = Signal.create k 0 in
  let edges = ref [] in
  K.spawn ~name:"sampler" k (fun () ->
      for _ = 1 to 3 do
        Signal.posedge clk;
        edges := K.now k :: !edges
      done);
  K.spawn ~name:"clock" k (fun () ->
      for _ = 1 to 4 do
        K.wait 5;
        Signal.write clk 1;
        K.wait 5;
        Signal.write clk 0
      done);
  ignore (K.run ~bound:K.Quiesce k);
  check (Alcotest.list Alcotest.int) "posedges" [ 5; 15; 25 ]
    (List.rev !edges)

let test_signal_multiple_waiters () =
  let k = K.create () in
  let s = Signal.create k 0 in
  let order = ref [] in
  for i = 1 to 3 do
    K.spawn ~name:(Printf.sprintf "w%d" i) k (fun () ->
        ignore (Signal.await_change s);
        order := i :: !order)
  done;
  K.spawn ~name:"writer" k (fun () ->
      K.wait 1;
      Signal.write s 5);
  ignore (K.run k);
  check (Alcotest.list Alcotest.int) "wake order fifo" [ 1; 2; 3 ]
    (List.rev !order)

(* ------------------------------------------------------------------ *)
(* Channel                                                             *)
(* ------------------------------------------------------------------ *)

let test_chan_rendezvous () =
  let k = K.create () in
  let c = Channel.create ~name:"r" k () in
  let log = ref [] in
  K.spawn ~name:"tx" k (fun () ->
      for i = 1 to 3 do
        Channel.send c i;
        log := ("sent", i, K.now k) :: !log
      done);
  K.spawn ~name:"rx" k (fun () ->
      for _ = 1 to 3 do
        K.wait 10;
        let v = Channel.recv c in
        log := ("recv", v, K.now k) :: !log
      done);
  ignore (K.run k);
  let stats = Channel.stats c in
  check Alcotest.int "sends" 3 stats.Channel.sends;
  check Alcotest.bool "sender blocked" true (stats.Channel.blocked_sends >= 1);
  (* values in order *)
  let recvs = List.filter (fun (t, _, _) -> t = "recv") (List.rev !log) in
  check
    (Alcotest.list Alcotest.int)
    "fifo values" [ 1; 2; 3 ]
    (List.map (fun (_, v, _) -> v) recvs)

let test_chan_buffered_nonblocking () =
  let k = K.create () in
  let c = Channel.create ~depth:4 k () in
  K.spawn ~name:"tx" k (fun () ->
      for i = 1 to 4 do
        Channel.send c i
      done);
  ignore (K.run ~bound:K.Quiesce k);
  let stats = Channel.stats c in
  check Alcotest.int "no blocks" 0 stats.Channel.blocked_sends;
  check Alcotest.int "occupancy" 4 (Channel.occupancy c)

let test_chan_buffered_backpressure () =
  let k = K.create () in
  let c = Channel.create ~depth:2 k () in
  let done_tx = ref (-1) in
  K.spawn ~name:"tx" k (fun () ->
      for i = 1 to 5 do
        Channel.send c i
      done;
      done_tx := K.now k);
  K.spawn ~name:"rx" k (fun () ->
      for _ = 1 to 5 do
        K.wait 10;
        ignore (Channel.recv c)
      done);
  ignore (K.run k);
  let stats = Channel.stats c in
  check Alcotest.int "all sent" 5 stats.Channel.sends;
  check Alcotest.bool "tx experienced backpressure" true
    (stats.Channel.blocked_sends > 0);
  check Alcotest.bool "tx finished late" true (!done_tx >= 30)

let test_chan_try_ops () =
  let k = K.create () in
  let c = Channel.create ~depth:1 k () in
  check Alcotest.bool "try_send ok" true (Channel.try_send c 5);
  check Alcotest.bool "try_send full" false (Channel.try_send c 6);
  check (Alcotest.option Alcotest.int) "try_recv" (Some 5)
    (Channel.try_recv c);
  check (Alcotest.option Alcotest.int) "try_recv empty" None
    (Channel.try_recv c)

let test_chan_recv_before_send () =
  let k = K.create () in
  let c = Channel.create k () in
  let got = ref 0 in
  K.spawn ~name:"rx" k (fun () -> got := Channel.recv c);
  K.spawn ~name:"tx" k (fun () ->
      K.wait 20;
      Channel.send c 77);
  ignore (K.run k);
  check Alcotest.int "value" 77 !got;
  check Alcotest.int "recv blocked once" 1 (Channel.stats c).Channel.recv_blocks

let test_chan_many_to_one_fifo () =
  (* multiple pending senders are served in arrival order *)
  let k = K.create () in
  let c = Channel.create k () in
  let got = ref [] in
  for i = 1 to 3 do
    K.spawn ~name:(Printf.sprintf "tx%d" i) k (fun () -> Channel.send c i)
  done;
  K.spawn ~name:"rx" k (fun () ->
      K.wait 5;
      for _ = 1 to 3 do
        got := Channel.recv c :: !got
      done);
  ignore (K.run k);
  check (Alcotest.list Alcotest.int) "fifo" [ 1; 2; 3 ] (List.rev !got)

let prop_chan_transfers_preserve_order =
  QCheck.Test.make ~name:"channel preserves message order" ~count:100
    QCheck.(pair (int_range 0 3) (small_list small_int))
    (fun (depth, msgs) ->
      let k = K.create () in
      let c = Channel.create ~depth k () in
      let out = ref [] in
      K.spawn ~name:"tx" k (fun () ->
          List.iter (fun m -> Channel.send c m) msgs);
      K.spawn ~name:"rx" k (fun () ->
          for _ = 1 to List.length msgs do
            out := Channel.recv c :: !out
          done);
      ignore (K.run k);
      List.rev !out = msgs)

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Vcd                                                                 *)
(* ------------------------------------------------------------------ *)

(* golden test: the exact VCD document for a small two-signal run is
   committed under test/golden/; any formatting or ordering drift in
   Vcd.dump shows up as a diff against a file a wave viewer is known to
   accept *)
let test_vcd_golden () =
  let k = K.create () in
  let vcd = Vcd.create k in
  let clk = Signal.create ~name:"clk" k 0 in
  let data = Signal.create ~name:"data" k 0 in
  Vcd.watch vcd ~width:1 clk;
  Vcd.watch vcd ~width:8 data;
  K.spawn k (fun () ->
      for t = 1 to 4 do
        K.wait 5;
        Signal.write clk (t land 1);
        Signal.write data (t * 3)
      done);
  ignore (K.run k);
  let golden =
    let ic = open_in_bin "golden/two_signal.vcd" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  check Alcotest.string "vcd dump matches golden" golden (Vcd.dump vcd)

let () =
  Alcotest.run "codesign_sim"
    [
      ( "event_queue",
        [
          Alcotest.test_case "time order" `Quick test_q_order;
          Alcotest.test_case "stability" `Quick test_q_stability;
          Alcotest.test_case "stress sorted" `Quick test_q_stress_sorted;
          Alcotest.test_case "10k sorted + fifo ties" `Quick
            test_q_10k_sorted_fifo;
          Alcotest.test_case "10k interleaved push/pop vs model" `Quick
            test_q_interleaved_model;
          Alcotest.test_case "negative time" `Quick test_q_negative;
          Alcotest.test_case "peek/size" `Quick test_q_peek;
          Alcotest.test_case "pop_into bounded drain" `Quick test_q_pop_into;
          QCheck_alcotest.to_alcotest prop_q_sorted_fifo;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "wait timeline" `Quick test_kernel_wait;
          Alcotest.test_case "interleaving" `Quick test_kernel_interleave;
          Alcotest.test_case "until bound + resume" `Quick test_kernel_until;
          Alcotest.test_case "deadlock detection" `Quick test_kernel_deadlock;
          Alcotest.test_case "bounded-run deadlock audit" `Quick
            test_kernel_bounded_deadlock_audit;
          Alcotest.test_case "not in process" `Quick
            test_kernel_not_in_process;
          Alcotest.test_case "negative wait" `Quick test_kernel_negative_wait;
          Alcotest.test_case "yield ordering" `Quick
            test_kernel_yield_ordering;
          Alcotest.test_case "at callback" `Quick test_kernel_at_callback;
          Alcotest.test_case "self name" `Quick test_kernel_self_name;
          Alcotest.test_case "trace" `Quick test_kernel_trace;
          Alcotest.test_case "until idles clock" `Quick
            test_kernel_until_idle_time;
          Alcotest.test_case "until with pending future events" `Quick
            test_kernel_until_pending_clock;
          Alcotest.test_case "daemon quiescent" `Quick
            test_kernel_daemon_quiescent;
          Alcotest.test_case "daemon mixed deadlock" `Quick
            test_kernel_daemon_mixed_deadlock;
          QCheck_alcotest.to_alcotest prop_kernel_endtime;
        ] );
      ( "in-place wait",
        [
          Alcotest.test_case "tie runs after queued event" `Quick
            test_in_place_tie;
          Alcotest.test_case "wake past until stays queued" `Quick
            test_in_place_past_until;
          Alcotest.test_case "at callback not in process" `Quick
            test_in_place_at_callback;
          Alcotest.test_case "negative and overflowing delays" `Quick
            test_in_place_bad_delays;
          Alcotest.test_case "stats inside a process" `Quick
            test_in_place_stats_in_process;
          Alcotest.test_case "nested kernel run" `Quick
            test_in_place_nested_kernel;
          QCheck_alcotest.to_alcotest prop_in_place_equals_queued;
        ] );
      ( "signal",
        [
          Alcotest.test_case "write wakes" `Quick test_signal_write_wake;
          Alcotest.test_case "no wake on same value" `Quick
            test_signal_no_wake_on_same_value;
          Alcotest.test_case "await predicate" `Quick
            test_signal_await_predicate;
          Alcotest.test_case "await immediate" `Quick
            test_signal_await_immediate;
          Alcotest.test_case "posedge" `Quick test_signal_posedge;
          Alcotest.test_case "multiple waiters fifo" `Quick
            test_signal_multiple_waiters;
        ] );
      ( "vcd",
        [ Alcotest.test_case "two-signal golden dump" `Quick test_vcd_golden ]
      );
      ( "channel",
        [
          Alcotest.test_case "rendezvous" `Quick test_chan_rendezvous;
          Alcotest.test_case "buffered non-blocking" `Quick
            test_chan_buffered_nonblocking;
          Alcotest.test_case "backpressure" `Quick
            test_chan_buffered_backpressure;
          Alcotest.test_case "try ops" `Quick test_chan_try_ops;
          Alcotest.test_case "recv before send" `Quick
            test_chan_recv_before_send;
          Alcotest.test_case "many-to-one fifo" `Quick
            test_chan_many_to_one_fifo;
          QCheck_alcotest.to_alcotest prop_chan_transfers_preserve_order;
        ] );
    ]
