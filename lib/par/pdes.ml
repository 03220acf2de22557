module K = Codesign_sim.Kernel
module P = Codesign_sim.Partition

(* Domain-parallel driver for a Partition plan: [d] domains, at most one
   per core, each serving the partitions [i] with [i mod d] equal to its
   index, synchronized by a coordinator-published round counter.

   Round protocol: the coordinator (domain 0) computes the next safe
   bound (Partition.next_bound — the only place cross-partition
   mailboxes are drained, so it must run while every helper is idle),
   stores it, resets [pending] to the helper count and bumps [round].
   It then runs its own partitions and waits for [pending] to reach 0.
   Helpers dispatch their own wheels only — all cross-wheel traffic
   travels through the latency-channel mailboxes — so no two domains
   ever touch the same kernel concurrently.  Determinism does not depend
   on domain scheduling: within a round the partitions share no mutable
   state, and injection order at the next barrier is fixed by the
   (lane, seq) keys, not by which helper posted first.

   A round is short (the mesh workload's 4-cycle lookahead gives about
   two dozen events per partition), so each wait first spins and only
   then parks on the mutex/condition pair.  Spinning is only cheap
   while every domain has a core of its own, which is why [d] never
   exceeds [Domain.recommended_domain_count]. *)

(* Domain.cpu_relax iterations a waiting domain spins before it parks.
   Measured on a 2-core Xeon host, where one cpu_relax takes about 27 ns,
   with the perfbench cosim mesh (4x8, 512 items, 2 partitions, ~8,100
   rounds; serial wheel 110-175 ms).  Three interleaved sweeps gave these
   partitioned medians: 248-294 ms with no spinning (about 15 us of
   park-and-wake per round), 132-187 ms at 128 spins, 88-144 ms at 512,
   119-128 ms at 1,024, and no further gain at 4,096 (118-144 ms) or
   16,384 (108-140 ms).  The 3x4 4-partition bench mesh flattened at the
   same point (about 2 ms from 512 spins on, 2.6-3.5 ms with none).
   1,024 spins last about 28 us, twice a park-and-wake, so a domain that
   waits longer loses at most that much to spinning. *)
let spin_limit = 1024

type sync = {
  round : int Atomic.t;  (** published round; -1 stops the helpers *)
  bound : int Atomic.t;  (** the published round's dispatch bound *)
  pending : int Atomic.t;  (** helpers still dispatching this round *)
  sleepers : int Atomic.t;  (** domains parked, or about to park, on [cv] *)
  m : Mutex.t;
  cv : Condition.t;
}

(* Wait until [ready ()] holds: spin, then park.  A parker counts itself
   in [sleepers] before its last check of [ready], and [wake] reads
   [sleepers] after publishing, so (all four accesses being atomic) one
   of them sees the other: either the parker finds [ready] true or the
   publisher broadcasts — under [m], which the parker holds until it is
   inside [Condition.wait]. *)
let await s ready =
  let spins = ref spin_limit in
  while !spins > 0 && not (ready ()) do
    Domain.cpu_relax ();
    decr spins
  done;
  if not (ready ()) then begin
    Mutex.lock s.m;
    Atomic.incr s.sleepers;
    while not (ready ()) do
      Condition.wait s.cv s.m
    done;
    Atomic.decr s.sleepers;
    Mutex.unlock s.m
  end

let wake s =
  if Atomic.get s.sleepers > 0 then begin
    Mutex.lock s.m;
    Condition.broadcast s.cv;
    Mutex.unlock s.m
  end

let run ?(bound = K.Drain) plan =
  let n = P.partitions plan in
  let d = min n (Domain.recommended_domain_count ()) in
  if d <= 1 then P.run_serial ~bound plan
  else begin
    let limit = match bound with K.Until u -> u | _ -> max_int in
    let s =
      {
        round = Atomic.make 0;
        bound = Atomic.make 0;
        pending = Atomic.make 0;
        sleepers = Atomic.make 0;
        m = Mutex.create ();
        cv = Condition.create ();
      }
    in
    let failed : exn option Atomic.t = Atomic.make None in
    (* Domain [j] serves partitions j, j + d, j + 2d, ... in index order. *)
    let serve j ~bound =
      let i = ref j in
      while !i < n do
        P.run_round plan !i ~bound;
        i := !i + d
      done
    in
    let helper j () =
      let before = K.domain_totals () in
      let last = ref 0 in
      let running = ref true in
      while !running do
        await s (fun () -> Atomic.get s.round <> !last);
        let r = Atomic.get s.round in
        if r < 0 then running := false
        else begin
          last := r;
          (try serve j ~bound:(Atomic.get s.bound)
           with e -> ignore (Atomic.compare_and_set failed None (Some e)));
          if Atomic.fetch_and_add s.pending (-1) = 1 then wake s
        end
      done;
      K.diff_totals ~after:(K.domain_totals ()) ~before
    in
    let helpers = List.init (d - 1) (fun j -> Domain.spawn (helper (j + 1))) in
    let finishing = ref None in
    (try
       let continue_ = ref true in
       while !continue_ && Atomic.get failed = None do
         match P.next_bound plan ~limit with
         | None -> continue_ := false
         | Some b ->
             Atomic.set s.bound b;
             Atomic.set s.pending (d - 1);
             Atomic.incr s.round;
             wake s;
             serve 0 ~bound:b;
             await s (fun () -> Atomic.get s.pending = 0)
       done
     with e -> finishing := Some e);
    Atomic.set s.round (-1);
    wake s;
    List.iter (fun h -> K.merge_domain_totals (Domain.join h)) helpers;
    (match !finishing with Some e -> raise e | None -> ());
    (match Atomic.get failed with Some e -> raise e | None -> ());
    P.finish ~bound plan
  end
