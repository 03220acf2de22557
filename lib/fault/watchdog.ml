module K = Codesign_sim.Kernel

(* One pending expiry event stands for every kick.  A kick moves the
   deadline and reserves the kernel's next insertion number, the one a
   timer queued by that kick would have taken; it queues an event only
   when none is pending.  The event, fired before the deadline,
   re-queues itself at the deadline under the last kick's number, so a
   bite lands on the cycle, and in the place among same-time events,
   that a fresh timer per kick would give it. *)
type t = {
  k : K.t;
  timeout : int;
  on_bite : t -> unit;
  mutable generation : int;  (** bumped by [stop]: older events are inert *)
  mutable pending : bool;  (** an expiry event of [generation] is queued *)
  mutable deadline : int;  (** the last kick's time + [timeout] *)
  mutable seq : int;  (** the insertion number the last kick reserved *)
  mutable bites : int;
}

let create k ~timeout ~on_bite =
  if timeout <= 0 then invalid_arg "Watchdog.create: timeout must be > 0";
  {
    k;
    timeout;
    on_bite;
    generation = 0;
    pending = false;
    deadline = 0;
    seq = 0;
    bites = 0;
  }

(* The pending event, queued under [seq]: unless it stands where the
   last kick's timer would, at (deadline, that kick's number), it moves
   there — later in time, or later in its own cycle when a kick came in
   the cycle it was queued for. *)
let rec expire t gen seq () =
  if t.pending && t.generation = gen then
    if K.now t.k < t.deadline || seq <> t.seq then
      K.at_reserved t.k ~time:t.deadline ~seq:t.seq (expire t gen t.seq)
    else begin
      (* bite, then disarm until the next kick: one bite per hang *)
      t.pending <- false;
      t.bites <- t.bites + 1;
      t.on_bite t
    end

let kick t =
  t.deadline <- K.now t.k + t.timeout;
  t.seq <- K.reserve t.k;
  if not t.pending then begin
    t.pending <- true;
    K.at_reserved t.k ~time:t.deadline ~seq:t.seq
      (expire t t.generation t.seq)
  end

let stop t =
  t.pending <- false;
  t.generation <- t.generation + 1

let bites t = t.bites

type snap = {
  s_generation : int;
  s_pending : bool;
  s_deadline : int;
  s_seq : int;
  s_bites : int;
}

let snapshot t =
  {
    s_generation = t.generation;
    s_pending = t.pending;
    s_deadline = t.deadline;
    s_seq = t.seq;
    s_bites = t.bites;
  }

let restore t s =
  t.generation <- s.s_generation;
  t.pending <- s.s_pending;
  t.deadline <- s.s_deadline;
  t.seq <- s.s_seq;
  t.bites <- s.s_bites
