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

(* One unbounded [pop_into], as a drain loop makes it. *)
let pop q =
  let out = Q.slot () in
  if Q.pop_into q ~limit:max_int out then Some (out.Q.s_time, out.Q.s_thunk)
  else None

let test_q_order () =
  let q = Q.create () in
  let log = ref [] in
  let ev tag () = log := tag :: !log in
  Q.push q ~time:5 (ev "c");
  Q.push q ~time:1 (ev "a");
  Q.push q ~time:3 (ev "b");
  let rec drain () =
    match pop q with
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
    match pop q with
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
    match pop q with
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
    match pop q with
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
        match pop q with
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
   pushes colliding on few timestamps, [count_pushes], [reserve] and a
   later [push_reserved] of any outstanding number, [pop_into] with
   random limits, over a backlog that outgrows the initial 64 entries.
   Now and then [q] alone is snapshotted, perturbed and restored; the
   twin never is, so only a canonical snapshot lets the two compare
   equal.  The twin mirrors each [count_pushes q n] as [n] pushes and
   pops of an event that precedes every queued one, which by the
   contract no snapshot can tell apart.

   The model also places every event as the queue does, to check that
   the draws reach each case of the two-part queue: a [push] goes into
   its time's bucket when its slot ([time land 63]) is free or already
   that time's, and into the heap when another time holds the slot;
   keyed and reserved events always go into the heap, and a restore
   puts every event there.  Times span three laps of the 64-slot ring,
   so slots are shared; a run of same-time pushes now and then fills
   one bucket. *)
let test_q_interleaved_model () =
  let q = Q.create () and twin = Q.create () in
  let seed = ref 77 in
  let next bound =
    seed := ((!seed * 1103515245) + 12345) land 0x3FFFFFFF;
    !seed mod bound
  in
  let draw_time () = 1 + next 50 + (64 * next 3) in
  (* (time, key, seq, tag, in_bucket), sorted by (time, key, seq) *)
  let model = ref [] in
  let insert ((t, k, s, _, _) as e) =
    let rec go = function
      | ((t', k', s', _, _) as x) :: rest
        when t' < t || (t' = t && (k' < k || (k' = k && s' < s))) ->
          x :: go rest
      | l -> e :: l
    in
    model := go !model
  in
  (* slot -> (owning time, events in its bucket) *)
  let owner = Hashtbl.create 64 in
  let ever_owned = Hashtbl.create 64 in
  let in_heap = ref 0 and in_buckets = ref 0 in
  let peak_heap = ref 0 and peak_buckets = ref 0 in
  let shared = ref 0 and came_back = ref 0 and beside_bucket = ref 0 in
  let under_later = ref 0 in
  let owns time =
    match Hashtbl.find_opt owner (time land 63) with
    | Some (t, _) -> t = time
    | None -> false
  in
  let place_push time =
    let sl = time land 63 in
    match Hashtbl.find_opt owner sl with
    | Some (t, n) when t = time ->
        Hashtbl.replace owner sl (t, n + 1);
        true
    | Some _ ->
        incr shared;
        false
    | None ->
        if Hashtbl.mem ever_owned time then incr came_back;
        Hashtbl.replace ever_owned time ();
        Hashtbl.replace owner sl (time, 1);
        true
  in
  let add (time, key, s, tag, bucket) =
    insert (time, key, s, tag, bucket);
    if bucket then incr in_buckets else incr in_heap;
    peak_heap := max !peak_heap !in_heap;
    peak_buckets := max !peak_buckets !in_buckets
  in
  let remove (time, _, _, _, bucket) =
    if bucket then begin
      decr in_buckets;
      let sl = time land 63 in
      match Hashtbl.find owner sl with
      | _, 1 -> Hashtbl.remove owner sl
      | t, n -> Hashtbl.replace owner sl (t, n - 1)
    end
    else decr in_heap
  in
  let fired = ref 0 in
  let tags = ref 0 and seq = ref 0 and keyed = ref 0 in
  let fresh_thunk () =
    incr tags;
    let tag = !tags in
    (tag, fun () -> fired := tag)
  in
  let same what =
    check Alcotest.bool what true (same_snapshot (Q.snapshot q) (Q.snapshot twin))
  in
  let slot = Q.slot () and twin_slot = Q.slot () in
  (* pop the model's head from both queues *)
  let expect_pop ~limit ((mt, _, _, tag, _) as e) =
    check Alcotest.bool "pop_into twin" true (Q.pop_into twin ~limit twin_slot);
    twin_slot.Q.s_thunk ();
    check Alcotest.int "twin fires the model's event" tag !fired;
    check Alcotest.bool "pop_into" true (Q.pop_into q ~limit slot);
    slot.Q.s_thunk ();
    check Alcotest.int "pop fires the model's event" tag !fired;
    check Alcotest.int "reported pop time" mt slot.Q.s_time;
    remove e
  in
  let push time =
    let tag, f = fresh_thunk () in
    add (time, max_int, !seq, tag, place_push time);
    incr seq;
    Q.push q ~time f;
    Q.push twin ~time f
  in
  let perturb () =
    for _ = 0 to next 40 do
      match next 5 with
      | 0 -> Q.push q ~time:(draw_time ()) (fun () -> fired := -1)
      | 1 ->
          Q.push_keyed q ~time:(draw_time ()) ~key:(next 4)
            ~seq:(20_000 + next 1000) (fun () -> fired := -1)
      | 2 -> Q.count_pushes q (1 + next 3)
      | 3 -> ignore (Q.reserve q)
      | _ -> ignore (pop q)
    done
  in
  (* numbers reserved and not yet pushed *)
  let reserved = ref [] in
  for _ = 1 to 10_000 do
    (match next 23 with
    | n when n < 7 -> push (draw_time ())
    | n when n < 10 ->
        (* keyed seqs are unique and unrelated to insertion order *)
        let time = draw_time () and key = next 4 in
        let s = !keyed * 7919 mod 10007 in
        incr keyed;
        if owns time then incr beside_bucket;
        let tag, f = fresh_thunk () in
        add (time, key, s, tag, false);
        Q.push_keyed q ~time ~key ~seq:s f;
        Q.push_keyed twin ~time ~key ~seq:s f
    | 10 ->
        let n = 1 + next 3 in
        seq := !seq + n;
        Q.count_pushes q n;
        for _ = 1 to n do
          Q.push twin ~time:0 ignore;
          ignore (pop twin)
        done;
        same "count_pushes n = n pushes and pops of the next event"
    | n when n < 19 -> (
        let limit = if n < 15 then next 200 else max_int in
        match !model with
        | ((mt, _, _, _, _) as e) :: rest when mt <= limit ->
            model := rest;
            expect_pop ~limit e
        | _ ->
            let before = Q.snapshot q in
            check Alcotest.bool "pop_into past the limit" false
              (Q.pop_into q ~limit slot);
            check Alcotest.bool "a false pop_into leaves the queue as it was"
              true
              (same_snapshot before (Q.snapshot q));
            check Alcotest.bool "twin agrees" false
              (Q.pop_into twin ~limit twin_slot))
    | 19 ->
        let snap = Q.snapshot q in
        perturb ();
        Q.restore q snap;
        same "restore rewinds to the snapshot";
        (* every restored event sits in the heap *)
        Hashtbl.reset owner;
        model := List.map (fun (t, k, s, g, _) -> (t, k, s, g, false)) !model;
        in_heap := !in_heap + !in_buckets;
        in_buckets := 0;
        peak_heap := max !peak_heap !in_heap
    | 20 ->
        let pushed = Q.pushed_total q in
        let s = Q.reserve q in
        check Alcotest.int "reserve takes the next insertion number" !seq s;
        check Alcotest.int "the twin reserves the same number" s
          (Q.reserve twin);
        check Alcotest.int "reserve counts no push" pushed (Q.pushed_total q);
        incr seq;
        reserved := s :: !reserved
    | 21 -> (
        (* redeem an outstanding reservation, not always the latest *)
        match !reserved with
        | [] -> ()
        | outstanding ->
            let i = next (List.length outstanding) in
            let s = List.nth outstanding i in
            reserved := List.filteri (fun j _ -> j <> i) outstanding;
            let time = draw_time () in
            if owns time then begin
              incr beside_bucket;
              if
                List.exists
                  (fun (t, _, s', _, b) -> b && t = time && s' > s)
                  !model
              then incr under_later
            end;
            let tag, f = fresh_thunk () in
            add (time, max_int, s, tag, false);
            Q.push_reserved q ~time ~seq:s f;
            Q.push_reserved twin ~time ~seq:s f)
    | _ ->
        (* a run of same-time pushes fills one bucket past 64 nodes *)
        if next 40 = 0 then begin
          let time = draw_time () in
          for _ = 1 to 70 do
            push time
          done
        end);
    check Alcotest.int "min_time is the model's head"
      (match !model with (t, _, _, _, _) :: _ -> t | [] -> max_int)
      (Q.min_time q)
  done;
  check Alcotest.bool "the heap outgrew its initial 64 entries" true
    (!peak_heap > 64);
  check Alcotest.bool "the buckets outgrew their initial 64 nodes" true
    (!peak_buckets > 64);
  check Alcotest.bool "pushes met slots another time held" true (!shared > 0);
  check Alcotest.bool "buckets drained and came back" true (!came_back > 0);
  check Alcotest.bool "keyed and reserved events landed beside a bucket" true
    (!beside_bucket > 0);
  check Alcotest.bool "reserved events landed under later bucket numbers" true
    (!under_later > 0);
  List.iter (expect_pop ~limit:max_int) !model;
  check Alcotest.bool "both drained" true (Q.is_empty q && Q.is_empty twin);
  check Alcotest.int "pushed totals agree" (Q.pushed_total twin) (Q.pushed_total q)

let test_q_negative () =
  let q = Q.create () in
  (try
     Q.push q ~time:(-1) ignore;
     fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  (* a number the queue has not handed out cannot be pushed *)
  let s = Q.reserve q in
  try
    Q.push_reserved q ~time:0 ~seq:(s + 1) ignore;
    fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_q_min_time () =
  let q = Q.create () in
  check Alcotest.int "empty" max_int (Q.min_time q);
  check Alcotest.bool "empty" true (Q.is_empty q);
  Q.push q ~time:9 ignore;
  check Alcotest.int "bucket head" 9 (Q.min_time q);
  (* time 73 shares 9's slot, so it waits in the heap *)
  Q.push q ~time:73 ignore;
  Q.push q ~time:5 ignore;
  check Alcotest.int "earlier bucket" 5 (Q.min_time q);
  Q.push_keyed q ~time:2 ~key:0 ~seq:0 ignore;
  check Alcotest.int "heap head" 2 (Q.min_time q);
  check Alcotest.bool "not empty" false (Q.is_empty q);
  let times = ref [] in
  let rec drain () =
    match pop q with
    | Some (t, _) ->
        times := t :: !times;
        drain ()
    | None -> ()
  in
  drain ();
  check (Alcotest.list Alcotest.int) "drain order" [ 2; 5; 9; 73 ]
    (List.rev !times);
  check Alcotest.int "drained" max_int (Q.min_time q)

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
  check Alcotest.int "past-limit event remains" 12 (Q.min_time q);
  check Alcotest.bool "blocked pop leaves queue untouched" false
    (Q.pop_into q ~limit:11 slot);
  check Alcotest.int "still there" 12 (Q.min_time q);
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
    K.suspend ~register:ignore;
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
  (* a zero wait yields: already-scheduled same-time events run first *)
  let k = K.create () in
  let log = ref [] in
  K.spawn ~name:"first" k (fun () ->
      log := "first.a" :: !log;
      K.wait 0;
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
(* The blocked-process set                                             *)
(* ------------------------------------------------------------------ *)

let test_kernel_resumed_twice () =
  let k = K.create () in
  let resume = ref ignore in
  K.spawn ~name:"twice" k (fun () -> K.suspend ~register:(( := ) resume));
  ignore (K.run ~bound:K.Quiesce k);
  !resume ();
  (match !resume () with
  | () -> fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
      check Alcotest.string "names the process"
        "Kernel: process twice resumed twice" msg);
  (* the first resume still counts *)
  ignore (K.run k);
  check (Alcotest.list Alcotest.string) "nothing blocked" []
    (K.blocked_non_daemon k)

(* A random world of processes that each block [times] times on one of
   two signals (targets 0, 1) or two channels (2, 3), driven from
   outside by signal writes, channel hand-offs, snapshots and restores
   (kernel, signals and channels together, at quiescence: the fork
   discipline).  A reference multiset follows along: a restore brings
   back the snapshot's blocked processes as abandoned (their waits were
   dropped with the signal and channel waiters) and forgets every
   process blocked since.  After every step the sorted
   [blocked_non_daemon] and the [Deadlock] text must match it. *)
type blocked_op =
  | Spawn of { daemon : bool; target : int; times : int }
  | Wake of int
  | Snap
  | Restore

type model_state = Waiting of int | Abandoned | Finished

type model_proc = {
  m_name : string;
  m_daemon : bool;
  m_left : int;  (** blocks still to come, the current one included *)
  m_state : model_state;
  m_since : int;  (** when it last blocked: channel receivers are FIFO *)
}

let print_blocked_op = function
  | Spawn { daemon; target; times } ->
      Printf.sprintf "spawn(daemon=%b,target=%d,times=%d)" daemon target times
  | Wake t -> Printf.sprintf "wake %d" t
  | Snap -> "snap"
  | Restore -> "restore"

let gen_blocked_op =
  QCheck.Gen.(
    frequency
      [
        ( 4,
          map3
            (fun daemon target times -> Spawn { daemon; target; times })
            (frequency [ (3, return false); (1, return true) ])
            (int_range 0 3) (int_range 1 3) );
        (4, map (fun t -> Wake t) (int_range 0 3));
        (1, return Snap);
        (1, return Restore);
      ])

let run_blocked_model ops =
  let k = K.create () in
  let sigs =
    Array.init 2 (fun i -> Signal.create ~name:(Printf.sprintf "s%d" i) 0)
  in
  let chans = Array.init 2 (fun _ -> Channel.create ~depth:1 k ()) in
  let block_on t =
    if t < 2 then ignore (Signal.await_change sigs.(t))
    else ignore (Channel.recv chans.(t - 2))
  in
  let model = ref [] and clock = ref 0 and spawned = ref 0 in
  let saved = ref None in
  let settle () = ignore (K.run ~bound:K.Quiesce k) in
  let tick () =
    incr clock;
    !clock
  in
  let agrees () =
    let want =
      List.sort compare
        (List.filter_map
           (fun p ->
             if p.m_daemon || p.m_state = Finished then None else Some p.m_name)
           !model)
    in
    List.sort compare (K.blocked_non_daemon k) = want
    &&
    match K.run k with
    | _ -> want = []
    | exception K.Deadlock names ->
        names = String.concat ", " (List.sort_uniq compare want)
  in
  List.for_all
    (fun op ->
      (match op with
      | Spawn { daemon; target; times } ->
          (* five names shared round-robin: the set is a multiset *)
          let name = Printf.sprintf "p%d" (!spawned mod 5) in
          incr spawned;
          K.spawn ~name ~daemon k (fun () ->
              for _ = 1 to times do
                block_on target
              done);
          settle ();
          model :=
            !model
            @ [
                {
                  m_name = name;
                  m_daemon = daemon;
                  m_left = times;
                  m_state = Waiting target;
                  m_since = tick ();
                };
              ]
      | Wake t ->
          let waiting =
            List.filter (fun p -> p.m_state = Waiting t) !model
          in
          let woken =
            if t < 2 then waiting
            else
              match
                List.sort (fun a b -> compare a.m_since b.m_since) waiting
              with
              | [] -> []
              | first :: _ -> [ first ]
          in
          if woken <> [] then begin
            if t < 2 then Signal.write sigs.(t) (Signal.read sigs.(t) + 1)
            else if not (Channel.try_send chans.(t - 2) 0) then
              fail "hand-off to a waiting receiver refused";
            settle ();
            model :=
              List.map
                (fun p ->
                  if not (List.memq p woken) then p
                  else if p.m_left = 1 then
                    { p with m_left = 0; m_state = Finished }
                  else { p with m_left = p.m_left - 1; m_since = tick () })
                !model
          end
      | Snap ->
          saved :=
            Some
              ( K.snapshot k,
                Array.map Signal.snapshot sigs,
                Array.map Channel.snapshot chans,
                !model )
      | Restore -> (
          match !saved with
          | None -> ()
          | Some (ks, ss, cs, m) ->
              K.restore k ks;
              Array.iteri (fun i s -> Signal.restore sigs.(i) s) ss;
              Array.iteri (fun i c -> Channel.restore chans.(i) c) cs;
              model :=
                List.map
                  (fun p ->
                    match p.m_state with
                    | Waiting _ -> { p with m_state = Abandoned }
                    | Abandoned | Finished -> p)
                  m));
      agrees ())
    ops

let prop_blocked_set_model =
  QCheck.Test.make ~name:"blocked set = reference multiset" ~count:300
    QCheck.(
      make ~print:(Print.list print_blocked_op)
        Gen.(list_size (int_range 0 40) gen_blocked_op))
    run_blocked_model

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

type action = Wait of int | At of int | Send of int | Recv

let show_action = function
  | Wait d -> Printf.sprintf "wait %d" d
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

(* One seeded world: two producers and two consumers taking short waits
   around a depth-2 channel, 4,000 transfers in all. *)
let seeded_world seed =
  let rng = Random.State.make [| seed |] in
  let k = K.create () in
  let ch = Channel.create ~depth:2 k () in
  let log = ref [] in
  let note tag = log := (K.now k, tag) :: !log in
  let waits () = Array.init 2000 (fun _ -> Random.State.int rng 4) in
  for p = 0 to 1 do
    let waits = waits () in
    K.spawn ~name:(Printf.sprintf "src%d" p) k (fun () ->
        Array.iteri
          (fun i d ->
            K.wait d;
            Channel.send ch ((p * 10_000) + i);
            note (Printf.sprintf "src%d" p))
          waits)
  done;
  for c = 0 to 1 do
    let waits = waits () in
    K.spawn ~name:(Printf.sprintf "dst%d" c) k (fun () ->
        Array.iter
          (fun d ->
            K.wait d;
            note (Printf.sprintf "dst%d<%d" c (Channel.recv ch)))
          waits)
  done;
  let st = K.run k in
  (List.rev !log, st, K.now k)

let test_in_place_two_domains () =
  (* each domain names its own innermost kernel: two worlds running at
     once, one per domain, each equal their serial runs *)
  let serial = (seeded_world 11, seeded_world 12) in
  for _ = 1 to 20 do
    let other = Domain.spawn (fun () -> seeded_world 11) in
    let mine = seeded_world 12 in
    let theirs = Domain.join other in
    check Alcotest.bool "world on a second domain = its serial run" true
      (theirs = fst serial);
    check Alcotest.bool "world on this domain = its serial run" true
      (mine = snd serial)
  done

(* ------------------------------------------------------------------ *)
(* Signal                                                              *)
(* ------------------------------------------------------------------ *)

let test_signal_write_wake () =
  let k = K.create () in
  let s = Signal.create 0 in
  let seen = ref (-1) in
  K.spawn ~name:"reader" k (fun () -> seen := Signal.await_change s);
  K.spawn ~name:"writer" k (fun () ->
      K.wait 5;
      Signal.write s 99);
  ignore (K.run k);
  check Alcotest.int "woken with value" 99 !seen

let test_signal_no_wake_on_same_value () =
  let k = K.create () in
  let s = Signal.create 7 in
  let woken = ref [] in
  K.spawn ~name:"waiter" k (fun () ->
      ignore (Signal.await_change s);
      woken := K.now k :: !woken);
  K.spawn ~name:"writer" k (fun () ->
      K.wait 1;
      Signal.write s 7;
      K.wait 1;
      Signal.pulse s 7);
  ignore (K.run k);
  check (Alcotest.list Alcotest.int) "only the pulse wakes" [ 2 ] !woken

let test_signal_await_predicate () =
  let k = K.create () in
  let s = Signal.create 0 in
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
  let s = Signal.create 10 in
  let hit = ref 0 in
  K.spawn k (fun () -> hit := Signal.await s (fun v -> v = 10));
  ignore (K.run k);
  check Alcotest.int "immediate" 10 !hit

let test_signal_multiple_waiters () =
  let k = K.create () in
  let s = Signal.create 0 in
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
  let clk = Signal.create ~name:"clk" 0 in
  let data = Signal.create ~name:"data" 0 in
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
          Alcotest.test_case "min_time/is_empty" `Quick test_q_min_time;
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
          Alcotest.test_case "until idles clock" `Quick
            test_kernel_until_idle_time;
          Alcotest.test_case "until with pending future events" `Quick
            test_kernel_until_pending_clock;
          Alcotest.test_case "daemon quiescent" `Quick
            test_kernel_daemon_quiescent;
          Alcotest.test_case "daemon mixed deadlock" `Quick
            test_kernel_daemon_mixed_deadlock;
          QCheck_alcotest.to_alcotest prop_kernel_endtime;
          Alcotest.test_case "resumed twice" `Quick test_kernel_resumed_twice;
          QCheck_alcotest.to_alcotest prop_blocked_set_model;
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
          Alcotest.test_case "two kernels on two domains" `Quick
            test_in_place_two_domains;
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
