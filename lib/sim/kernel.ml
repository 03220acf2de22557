open Effect
open Effect.Deep

exception Not_in_process
exception Deadlock of string

type bound = Drain | Quiesce | Until of int

type stats = {
  events : int;
  scheduled : int;
  activations : int;
  spawned : int;
  end_time : int;
}

(* A spawned process as the blocked set sees it, made once at [spawn]
   or [spawn_cb]: [slot] is its index in the kernel's [blocked] array
   while it sits in {!suspend} or {!suspend_cb}, and -1 otherwise. *)
type proc = { name : string; daemon : bool; mutable slot : int }

type t = {
  q : Event_queue.t;
  mutable now : int;
  mutable events : int;
  mutable activations : int;
  mutable spawned : int;
  mutable blocked : proc array;
      (** the blocked processes, dense in [0, n_blocked) *)
  mutable n_blocked : int;
  mutable next_lane : int;  (** arrival-lane key allocator *)
  mutable running : bool;
      (** a process resumed by this kernel's dispatch is executing: set by
          every resume thunk, cleared when that process blocks or ends *)
  mutable bound : int;
      (** bound of the stop-less dispatch loop in progress ([run] without
          [stop], or [run_horizon]); -1 when there is none *)
}

(* A callback process: its kernel and its blocked-set record. *)
type process = { kernel : t; proc : proc }

(* Cumulative per-domain counters across every kernel run in this domain.
   The bench harness runs one experiment per domain and reads the deltas,
   so these must be domain-local, not global. *)
type domain_totals = {
  d_events : int;
  d_activations : int;
  d_scheduled : int;
  d_kernels : int;
}

type totals_cell = {
  mutable c_events : int;
  mutable c_activations : int;
  mutable c_scheduled : int;
  mutable c_kernels : int;
}

let totals_key =
  Domain.DLS.new_key (fun () ->
      { c_events = 0; c_activations = 0; c_scheduled = 0; c_kernels = 0 })

let domain_totals () =
  let c = Domain.DLS.get totals_key in
  {
    d_events = c.c_events;
    d_activations = c.c_activations;
    d_scheduled = c.c_scheduled;
    d_kernels = c.c_kernels;
  }

let diff_totals ~after ~before =
  {
    d_events = after.d_events - before.d_events;
    d_activations = after.d_activations - before.d_activations;
    d_scheduled = after.d_scheduled - before.d_scheduled;
    d_kernels = after.d_kernels - before.d_kernels;
  }

let merge_domain_totals d =
  let c = Domain.DLS.get totals_key in
  c.c_events <- c.c_events + d.d_events;
  c.c_activations <- c.c_activations + d.d_activations;
  c.c_scheduled <- c.c_scheduled + d.d_scheduled;
  c.c_kernels <- c.c_kernels + d.d_kernels

type _ Effect.t +=
  | Wait : int -> unit Effect.t
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t

let blank () =
  {
    q = Event_queue.create ();
    now = 0;
    events = 0;
    activations = 0;
    spawned = 0;
    blocked = [||];
    n_blocked = 0;
    next_lane = 0;
    running = false;
    bound = -1;
  }

let create () =
  (Domain.DLS.get totals_key).c_kernels <-
    (Domain.DLS.get totals_key).c_kernels + 1;
  blank ()

let now k = k.now

let at k ~time thunk =
  if time < k.now then
    invalid_arg
      (Printf.sprintf "Kernel.at: time %d is in the past (now %d)" time k.now);
  Event_queue.push k.q ~time thunk

let at_keyed k ~time ~key ~seq thunk =
  if time < k.now then
    invalid_arg
      (Printf.sprintf "Kernel.at_keyed: time %d is in the past (now %d)" time
         k.now);
  Event_queue.push_keyed k.q ~time ~key ~seq thunk

let reserve k = Event_queue.reserve k.q

let at_reserved k ~time ~seq thunk =
  if time < k.now then
    invalid_arg
      (Printf.sprintf "Kernel.at_reserved: time %d is in the past (now %d)"
         time k.now);
  Event_queue.push_reserved k.q ~time ~seq thunk

let alloc_lane k =
  let l = k.next_lane in
  k.next_lane <- l + 1;
  l

(* A [wait n] (n >= 0) of the running process wakes before the next
   queued event and within the loop's bound: it is the very event the
   loop would dispatch next, so the process advances the clock and
   carries on in place.  Both tests are gaps, so [now + n] is never
   formed where it could overflow, and the strict one lets equal-time
   events run first in schedule order. *)
let wakes_next k n =
  n < Event_queue.min_time k.q - k.now && n <= k.bound - k.now

(* Exactly what [waits] pushes, pops and dispatches of wake-ups whose
   delays sum to [total] count, with the clock advanced to the last. *)
let count_in_place k ~waits ~total =
  k.now <- k.now + total;
  k.events <- k.events + waits;
  k.activations <- k.activations + waits;
  Event_queue.count_pushes k.q waits

(* The kernel whose dispatch loop is innermost on this domain, which
   [wait] reads to take the in-place path without performing an effect.
   With no loop in progress a domain names [idle]: a kernel that is
   never running, made by [blank] rather than [create] so that it
   counts in no domain's totals. *)
let idle = blank ()
let innermost = Domain.DLS.new_key (fun () -> ref idle)

(* The blocked set: O(1) add at the end, O(1) swap-remove.  Both are
   no-ops on a process already in (or already out of) the set, so a set
   rebuilt by [restore] can never hold a process twice. *)
let block k p =
  if p.slot < 0 then begin
    let n = k.n_blocked in
    if n = Array.length k.blocked then begin
      let grown = Array.make (max 8 (2 * n)) p in
      Array.blit k.blocked 0 grown 0 n;
      k.blocked <- grown
    end;
    k.blocked.(n) <- p;
    p.slot <- n;
    k.n_blocked <- n + 1
  end

let unblock k p =
  let i = p.slot in
  if i >= 0 then begin
    let last = k.n_blocked - 1 in
    let moved = k.blocked.(last) in
    k.blocked.(i) <- moved;
    moved.slot <- i;
    p.slot <- -1;
    k.n_blocked <- last
  end

(* The accounting both process forms share: a spawn counts one process
   and queues its first run at the current time; a wake-up counts one
   activation when it runs; a suspension holds the process in the
   blocked set until its one [resume], which queues [wake] at the then
   current time. *)
let new_proc k ~name ~daemon =
  k.spawned <- k.spawned + 1;
  { name; daemon; slot = -1 }

let park k p register wake =
  block k p;
  let resumed = ref false in
  register (fun () ->
      if !resumed then
        invalid_arg ("Kernel: process " ^ p.name ^ " resumed twice");
      resumed := true;
      unblock k p;
      at k ~time:k.now wake)

let spawn ?(name = "proc") ?(daemon = false) k fn =
  let p = new_proc k ~name ~daemon in
  (* Every resume thunk below sets [running] just before its tail-call
     [continue].  They are written out rather than shared through a
     partially applied helper, which cost a few ns per queued wait. *)
  let handler : (unit, unit) handler =
    {
      retc = (fun () -> k.running <- false);
      exnc =
        (fun e ->
          k.running <- false;
          raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Wait n ->
              Some
                (fun (cont : (a, unit) continuation) ->
                  if n < 0 then
                    discontinue cont
                      (Invalid_argument "Kernel.wait: negative delay")
                  else begin
                    k.running <- false;
                    at k ~time:(k.now + n) (fun () ->
                        k.activations <- k.activations + 1;
                        k.running <- true;
                        continue cont ())
                  end)
          | Suspend register ->
              Some
                (fun (cont : (a, unit) continuation) ->
                  k.running <- false;
                  park k p register (fun () ->
                      k.activations <- k.activations + 1;
                      k.running <- true;
                      continue cont ()))
          | _ -> None);
    }
  in
  at k ~time:k.now (fun () ->
      k.activations <- k.activations + 1;
      k.running <- true;
      match_with fn () handler)

let in_process f = try f () with Effect.Unhandled _ -> raise Not_in_process

(* The in-place path needs no continuation: the caller is the running
   process of the innermost loop, so it simply returns.  Only a queued
   wait performs [Wait]. *)
let wait n =
  let k = !(Domain.DLS.get innermost) in
  if k.running && n >= 0 && wakes_next k n then
    count_in_place k ~waits:1 ~total:n
  else try perform (Wait n) with Effect.Unhandled _ -> raise Not_in_process

let suspend ~register = in_process (fun () -> perform (Suspend register))

let in_place_budget () =
  let k = !(Domain.DLS.get innermost) in
  if k.running then min (Event_queue.min_time k.q - k.now - 1) (k.bound - k.now)
  else -1

let count_waits ~waits ~total =
  let k = !(Domain.DLS.get innermost) in
  if waits < 1 || total < 0 || total > in_place_budget () then
    invalid_arg
      (Printf.sprintf
         "Kernel.count_waits: %d waits of %d cycles do not all wake next" waits
         total);
  count_in_place k ~waits ~total

(* Callback processes.  Their code only ever runs inside an event of
   their own kernel — the start event, a wake-up or a resume, each
   dispatched by that kernel's loop — so a wait tests the in-place
   conditions on the kernel it names, and an in-place wait calls its
   continuation directly.  Every continuation call is a tail call, so a
   chain of in-place waits runs in constant stack. *)
let spawn_cb ?(name = "proc") k body =
  let self = { kernel = k; proc = new_proc k ~name ~daemon:false } in
  at k ~time:k.now (fun () ->
      k.activations <- k.activations + 1;
      body self)

let wait_cb self n cont =
  let k = self.kernel in
  if n < 0 then invalid_arg "Kernel.wait_cb: negative delay"
  else if wakes_next k n then begin
    count_in_place k ~waits:1 ~total:n;
    cont ()
  end
  else
    at k ~time:(k.now + n) (fun () ->
        k.activations <- k.activations + 1;
        cont ())

let suspend_cb self ~register cont =
  let k = self.kernel in
  park k self.proc register (fun () ->
      k.activations <- k.activations + 1;
      cont ())

let stats k =
  {
    events = k.events;
    scheduled = Event_queue.pushed_total k.q;
    activations = k.activations;
    spawned = k.spawned;
    end_time = k.now;
  }

let blocked_non_daemon k =
  let acc = ref [] in
  for i = k.n_blocked - 1 downto 0 do
    let p = k.blocked.(i) in
    if not p.daemon then acc := p.name :: !acc
  done;
  !acc

(* Run [loop] as a dispatch loop of [k]: make [k] this domain's
   innermost kernel, publish its bound ([-1] for a loop that must queue
   every wait), start with no process of [k] running, and put back the
   enclosing loop's state however [loop] ends. *)
let dispatching k ~bound loop =
  let cur = Domain.DLS.get innermost in
  let outer = !cur and bound0 = k.bound and running0 = k.running in
  cur := k;
  k.bound <- bound;
  k.running <- false;
  Fun.protect loop ~finally:(fun () ->
      cur := outer;
      k.bound <- bound0;
      k.running <- running0)

(* The stop-less dispatch loop of [run] and [run_horizon]: no
   per-event predicate call, and a wait that wakes next advances the
   clock in place.  One reused slot keeps the steady-state loop
   allocation-free: pop_into merges the peek / bound-compare / pop into
   a single heap operation per event. *)
let drain k ~limit =
  let slot = Event_queue.slot () in
  dispatching k ~bound:limit (fun () ->
      while Event_queue.pop_into k.q ~limit slot do
        k.now <- slot.Event_queue.s_time;
        k.events <- k.events + 1;
        slot.Event_queue.s_thunk ()
      done)

let run ?(bound = Drain) ?stop k =
  let events0 = k.events
  and activations0 = k.activations
  and scheduled0 = Event_queue.pushed_total k.q in
  let limit = match bound with Until u -> u | Drain | Quiesce -> max_int in
  let stopped =
    match stop with
    | None ->
        drain k ~limit;
        false
    | Some stop ->
        (* [stop] is polled once per dispatched event, so every wait is
           queued and dispatched here. *)
        let slot = Event_queue.slot () in
        let halted = ref false in
        dispatching k ~bound:(-1) (fun () ->
            while (not !halted) && not (stop ()) do
              if Event_queue.pop_into k.q ~limit slot then begin
                k.now <- slot.Event_queue.s_time;
                k.events <- k.events + 1;
                slot.Event_queue.s_thunk ()
              end
              else halted := true
            done);
        not !halted
  in
  let totals = Domain.DLS.get totals_key in
  totals.c_events <- totals.c_events + (k.events - events0);
  totals.c_activations <- totals.c_activations + (k.activations - activations0);
  totals.c_scheduled <-
    totals.c_scheduled + (Event_queue.pushed_total k.q - scheduled0);
  (* A [stop]ped run is an interruption, not a completed window: the
     clock stays wherever dispatch was cut off so a restore/resume sees
     a consistent timeline, and nothing is checked. *)
  (if not stopped then
     match bound with
     | Until u ->
         (* Simulated time always advances to the bound — even when
            future events remain queued past it — so that repeated
            bounded runs keep a consistent clock for subsequent
            [at]/[wait] calls. *)
         if u > k.now then k.now <- u
     | Quiesce -> ()
     | Drain -> (
         if Event_queue.is_empty k.q then
           match blocked_non_daemon k with
           | [] -> ()
           | stuck ->
               let names = List.sort_uniq compare stuck in
               raise (Deadlock (String.concat ", " names))));
  stats k

let has_pending_events k = not (Event_queue.is_empty k.q)

let next_event_time k = Event_queue.min_time k.q

(* One barrier round of the partitioned (LBTS) loop: dispatch every
   event up to [horizon] and stop, leaving the clock at the last
   dispatched event.  No coasting, no deadlock check — the Partition
   driver owns both across the whole set of wheels.  Per-domain totals
   are settled here because a horizon run may execute on a worker
   domain whose DLS deltas are merged after the join. *)
let run_horizon k ~horizon =
  let events0 = k.events
  and activations0 = k.activations
  and scheduled0 = Event_queue.pushed_total k.q in
  drain k ~limit:horizon;
  let totals = Domain.DLS.get totals_key in
  totals.c_events <- totals.c_events + (k.events - events0);
  totals.c_activations <- totals.c_activations + (k.activations - activations0);
  totals.c_scheduled <-
    totals.c_scheduled + (Event_queue.pushed_total k.q - scheduled0)

let coast k ~time = if time > k.now then k.now <- time

type snap = {
  s_q : Event_queue.snap;
  s_now : int;
  s_events : int;
  s_activations : int;
  s_spawned : int;
  s_next_lane : int;
  s_blocked : proc array;  (** the live part of [blocked] *)
}

let snapshot k =
  {
    s_q = Event_queue.snapshot k.q;
    s_now = k.now;
    s_events = k.events;
    s_activations = k.activations;
    s_spawned = k.spawned;
    s_next_lane = k.next_lane;
    s_blocked = Array.sub k.blocked 0 k.n_blocked;
  }

let restore k s =
  Event_queue.restore k.q s.s_q;
  k.now <- s.s_now;
  k.events <- s.s_events;
  k.activations <- s.s_activations;
  k.spawned <- s.s_spawned;
  k.next_lane <- s.s_next_lane;
  for i = 0 to k.n_blocked - 1 do
    k.blocked.(i).slot <- -1
  done;
  k.n_blocked <- 0;
  Array.iter (block k) s.s_blocked

