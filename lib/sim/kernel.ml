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

type t = {
  q : Event_queue.t;
  mutable now : int;
  mutable events : int;
  mutable activations : int;
  mutable spawned : int;
  mutable next_block_id : int;
  blocked : (int, string * bool) Hashtbl.t;  (** id -> (name, daemon) *)
  mutable tracer : (int -> string -> unit) option;
  mutable next_lane : int;  (** arrival-lane key allocator *)
  mutable running : bool;
      (** a process resumed by this kernel's dispatch is executing: set by
          every resume thunk, cleared when that process blocks or ends *)
  mutable bound : int;
      (** bound of the stop-less dispatch loop in progress ([run] without
          [stop], or [run_horizon]); -1 when there is none *)
}

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
  | Yield : unit Effect.t
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t
  | Whoami : string Effect.t

let create () =
  (Domain.DLS.get totals_key).c_kernels <-
    (Domain.DLS.get totals_key).c_kernels + 1;
  {
    q = Event_queue.create ();
    now = 0;
    events = 0;
    activations = 0;
    spawned = 0;
    next_block_id = 0;
    blocked = Hashtbl.create 16;
    tracer = None;
    next_lane = 0;
    running = false;
    bound = -1;
  }

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

let spawn ?(name = "proc") ?(daemon = false) k fn =
  k.spawned <- k.spawned + 1;
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
                  else if k.running && wakes_next k n then begin
                    (* Exactly what a push, a pop and a dispatch count. *)
                    k.now <- k.now + n;
                    k.events <- k.events + 1;
                    k.activations <- k.activations + 1;
                    Event_queue.count_push k.q;
                    continue cont ()
                  end
                  else begin
                    k.running <- false;
                    at k ~time:(k.now + n) (fun () ->
                        k.activations <- k.activations + 1;
                        k.running <- true;
                        continue cont ())
                  end)
          | Yield ->
              Some
                (fun (cont : (a, unit) continuation) ->
                  k.running <- false;
                  at k ~time:k.now (fun () ->
                      k.activations <- k.activations + 1;
                      k.running <- true;
                      continue cont ()))
          | Suspend register ->
              Some
                (fun (cont : (a, unit) continuation) ->
                  k.running <- false;
                  let id = k.next_block_id in
                  k.next_block_id <- id + 1;
                  Hashtbl.replace k.blocked id (name, daemon);
                  let resumed = ref false in
                  register (fun () ->
                      if !resumed then
                        invalid_arg
                          ("Kernel: process " ^ name ^ " resumed twice");
                      resumed := true;
                      Hashtbl.remove k.blocked id;
                      at k ~time:k.now (fun () ->
                          k.activations <- k.activations + 1;
                          k.running <- true;
                          continue cont ())))
          | Whoami ->
              Some (fun (cont : (a, unit) continuation) -> continue cont name)
          | _ -> None);
    }
  in
  at k ~time:k.now (fun () ->
      k.activations <- k.activations + 1;
      k.running <- true;
      match_with fn () handler)

let in_process f = try f () with Effect.Unhandled _ -> raise Not_in_process

let wait n = in_process (fun () -> perform (Wait n))
let yield () = in_process (fun () -> perform Yield)
let suspend ~register = in_process (fun () -> perform (Suspend register))
let self_name () = try perform Whoami with Effect.Unhandled _ -> "?"

let stats k =
  {
    events = k.events;
    scheduled = Event_queue.pushed_total k.q;
    activations = k.activations;
    spawned = k.spawned;
    end_time = k.now;
  }

let blocked_non_daemon k =
  Hashtbl.fold
    (fun _ (n, daemon) acc -> if daemon then acc else n :: acc)
    k.blocked []

(* Run [loop] as a dispatch loop of [k]: publish its bound ([-1] for a
   loop that must queue every wait), start with no process of [k]
   running, and put back the enclosing loop's state however [loop]
   ends. *)
let dispatching k ~bound loop =
  let bound0 = k.bound and running0 = k.running in
  k.bound <- bound;
  k.running <- false;
  Fun.protect loop ~finally:(fun () ->
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
  s_next_block_id : int;
  s_next_lane : int;
  s_blocked : (int, string * bool) Hashtbl.t;
}

let snapshot k =
  {
    s_q = Event_queue.snapshot k.q;
    s_now = k.now;
    s_events = k.events;
    s_activations = k.activations;
    s_spawned = k.spawned;
    s_next_block_id = k.next_block_id;
    s_next_lane = k.next_lane;
    s_blocked = Hashtbl.copy k.blocked;
  }

let restore k s =
  Event_queue.restore k.q s.s_q;
  k.now <- s.s_now;
  k.events <- s.s_events;
  k.activations <- s.s_activations;
  k.spawned <- s.s_spawned;
  k.next_block_id <- s.s_next_block_id;
  k.next_lane <- s.s_next_lane;
  Hashtbl.reset k.blocked;
  Hashtbl.iter (fun id v -> Hashtbl.replace k.blocked id v) s.s_blocked

let trace k sink = k.tracer <- Some sink

let emit k msg =
  match k.tracer with None -> () | Some sink -> sink k.now msg
