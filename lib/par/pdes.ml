module K = Codesign_sim.Kernel
module P = Codesign_sim.Partition

(* Domain-parallel driver for a Partition plan: one domain per
   partition, synchronized with a coordinator-published round counter.

   Round protocol: the coordinator computes the next safe bound
   (Partition.next_bound — the only place cross-partition mailboxes are
   drained, so it must run while every worker is parked), publishes
   (round, bound) under the mutex, runs partition 0 itself, and waits
   for the n-1 workers to check in.  Workers dispatch their own wheel
   only — all cross-wheel traffic travels through the latency-channel
   mailboxes — so no two domains ever touch the same kernel
   concurrently.  Determinism does not depend on domain scheduling:
   within a round the partitions share no mutable state, and injection
   order at the next barrier is fixed by the (lane, seq) keys, not by
   which worker posted first. *)

let run ?until ?expect_quiescent plan =
  let n = P.partitions plan in
  if n <= 1 then P.run_serial ?until ?expect_quiescent plan
  else begin
    let limit = match until with Some u -> u | None -> max_int in
    let m = Mutex.create () in
    let cv = Condition.create () in
    (* -1 terminates the workers; rounds count up from 1. *)
    let round = ref 0 in
    let bound = ref 0 in
    let done_count = ref 0 in
    let failed : exn option ref = ref None in
    let worker i () =
      let before = K.domain_totals () in
      let last = ref 0 in
      let running = ref true in
      while !running do
        Mutex.lock m;
        while !round <> -1 && !round = !last do
          Condition.wait cv m
        done;
        if !round = -1 then begin
          running := false;
          Mutex.unlock m
        end
        else begin
          last := !round;
          let b = !bound in
          Mutex.unlock m;
          (try P.run_round plan i ~bound:b
           with e ->
             Mutex.lock m;
             if !failed = None then failed := Some e;
             Mutex.unlock m);
          Mutex.lock m;
          incr done_count;
          Condition.broadcast cv;
          Mutex.unlock m
        end
      done;
      K.diff_totals ~after:(K.domain_totals ()) ~before
    in
    let helpers = List.init (n - 1) (fun j -> Domain.spawn (worker (j + 1))) in
    let finishing = ref None in
    (try
       let continue_ = ref true in
       while !continue_ && !failed = None do
         match P.next_bound plan ~limit with
         | None -> continue_ := false
         | Some b ->
             Mutex.lock m;
             bound := b;
             done_count := 0;
             incr round;
             Condition.broadcast cv;
             Mutex.unlock m;
             P.run_round plan 0 ~bound:b;
             Mutex.lock m;
             while !done_count < n - 1 do
               Condition.wait cv m
             done;
             Mutex.unlock m
       done
     with e -> if !finishing = None then finishing := Some e);
    Mutex.lock m;
    round := -1;
    Condition.broadcast cv;
    Mutex.unlock m;
    List.iter (fun d -> K.merge_domain_totals (Domain.join d)) helpers;
    (match !finishing with Some e -> raise e | None -> ());
    (match !failed with Some e -> raise e | None -> ());
    P.finish ?until ?expect_quiescent plan
  end
