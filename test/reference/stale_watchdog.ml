module K = Codesign_sim.Kernel

type t = {
  k : K.t;
  timeout : int;
  on_bite : t -> unit;
  mutable generation : int;
  mutable armed : bool;
  mutable bites : int;
}

let create k ~timeout ~on_bite =
  if timeout <= 0 then invalid_arg "Watchdog.create: timeout must be > 0";
  { k; timeout; on_bite; generation = 0; armed = false; bites = 0 }

let arm t =
  t.generation <- t.generation + 1;
  t.armed <- true;
  let gen = t.generation in
  K.at t.k
    ~time:(K.now t.k + t.timeout)
    (fun () ->
      if t.armed && t.generation = gen then begin
        (* bite, then disarm until the next kick: one bite per hang *)
        t.armed <- false;
        t.bites <- t.bites + 1;
        t.on_bite t
      end)

let kick t = arm t

let stop t =
  t.armed <- false;
  t.generation <- t.generation + 1

let bites t = t.bites

type snap = { s_generation : int; s_armed : bool; s_bites : int }

let snapshot t =
  { s_generation = t.generation; s_armed = t.armed; s_bites = t.bites }

let restore t s =
  t.generation <- s.s_generation;
  t.armed <- s.s_armed;
  t.bites <- s.s_bites
