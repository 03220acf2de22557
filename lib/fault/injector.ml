module Rng = Codesign_ir.Rng

type site = Bus | Mem | Irq | Cpu | Chan | Gate

let site_index = function
  | Bus -> 0
  | Mem -> 1
  | Irq -> 2
  | Cpu -> 3
  | Chan -> 4
  | Gate -> 5

let n_sites = 6

type t = {
  rng : Rng.t;
  mutable rate : float;
  mutable active : bool;
  mutable injected : int;
  (* oldest-first pending injection stamps, one queue per site *)
  pending_by : int Queue.t array;
  mutable detected : int;
  mutable latency_sum : int;
}

let check_rate rate =
  if not (rate >= 0.0 && rate <= 1.0) then
    invalid_arg "Injector: rate must be within [0, 1]"

let create ?(rate = 0.0) ?(active = true) ~seed () =
  check_rate rate;
  {
    rng = Rng.create seed;
    rate;
    active;
    injected = 0;
    pending_by = Array.init n_sites (fun _ -> Queue.create ());
    detected = 0;
    latency_sum = 0;
  }

let reinit t ~rate ~seed =
  check_rate rate;
  Rng.reseed t.rng seed;
  t.rate <- rate;
  t.active <- false;
  t.injected <- 0;
  Array.iter Queue.clear t.pending_by;
  t.detected <- 0;
  t.latency_sum <- 0

let set_active t on = t.active <- on
let fires t = t.active && Rng.float t.rng < t.rate
let shape t = t.rng

let injected_event t site ~time =
  t.injected <- t.injected + 1;
  Queue.push time t.pending_by.(site_index site)

let detected_event t site ~time =
  t.detected <- t.detected + 1;
  let q = t.pending_by.(site_index site) in
  match Queue.take_opt q with
  | None -> ()
  | Some stamp -> t.latency_sum <- t.latency_sum + max 0 (time - stamp)

let injected t = t.injected
let detected t = t.detected
let latency_sum t = t.latency_sum

let charge_pending t ~time =
  Array.iter
    (fun q ->
      Queue.iter
        (fun stamp -> t.latency_sum <- t.latency_sum + max 0 (time - stamp))
        q;
      Queue.clear q)
    t.pending_by
