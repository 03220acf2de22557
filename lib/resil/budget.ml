module K = Codesign_sim.Kernel
module Cpu = Codesign_isa.Cpu
module Clock = Codesign_obs.Clock

type exhausted = Fuel | Deadline

let exhausted_name = function Fuel -> "fuel" | Deadline -> "deadline"

type 'a outcome = Done of 'a | Exhausted of exhausted

type t = {
  mutable fuel : int option;
  deadline_ns : int64 option;
  mutable poll_countdown : int;
}

(* How many stop_poll calls between wall-clock reads.  One monotonic
   read per 256 events keeps the deadline check off the dispatch hot
   path while bounding overshoot to a few microseconds of events. *)
let poll_period = 256

let create ?fuel ?deadline_ms () =
  (match fuel with
  | Some f when f <= 0 -> invalid_arg "Budget.create: non-positive fuel"
  | _ -> ());
  (match deadline_ms with
  | Some d when d <= 0 -> invalid_arg "Budget.create: non-positive deadline"
  | _ -> ());
  let deadline_ns =
    Option.map
      (fun ms -> Int64.add (Clock.now_ns ()) (Int64.of_int (ms * 1_000_000)))
      deadline_ms
  in
  { fuel; deadline_ns; poll_countdown = poll_period }

let with_fuel t ~fuel =
  if fuel <= 0 then invalid_arg "Budget.with_fuel: non-positive fuel";
  { fuel = Some fuel; deadline_ns = t.deadline_ns; poll_countdown = poll_period }

let spend t n =
  match t.fuel with
  | None -> ()
  | Some f -> t.fuel <- Some (max 0 (f - n))

let fuel_left t = t.fuel

let past_deadline t =
  match t.deadline_ns with
  | None -> false
  | Some d -> Int64.compare (Clock.now_ns ()) d >= 0

let check t =
  match t.fuel with
  | Some 0 -> Error Fuel
  | _ -> if past_deadline t then Error Deadline else Ok ()

let stop_poll t =
  match t.deadline_ns with
  | None -> fun () -> false
  | Some _ ->
      fun () ->
        t.poll_countdown <- t.poll_countdown - 1;
        if t.poll_countdown > 0 then false
        else begin
          t.poll_countdown <- poll_period;
          past_deadline t
        end

let run_kernel t k =
  let bound =
    match t.fuel with Some f -> K.Until (K.now k + f) | None -> K.Quiesce
  in
  let stop = match t.deadline_ns with None -> None | Some _ -> Some (stop_poll t) in
  let before = K.now k in
  let stats = K.run ~bound ?stop k in
  spend t (K.now k - before);
  if K.has_pending_events k then
    (* Bounded runs coast the clock to the bound, so reaching the fuel
       bound and being deadline-stopped are distinguished by whether the
       clock made it there. *)
    match bound with
    | K.Until u when K.now k >= u -> Exhausted Fuel
    | _ -> Exhausted Deadline
  else Done stats (* drained: finished even if the deadline just passed *)

(* Big enough that the per-slice deadline read is noise, small enough
   that a deadline cuts a spinning model off promptly. *)
let cpu_slice = 4096

let run_cpu t cpu =
  let rec go () =
    match Cpu.status cpu with
    | (Cpu.Halted | Cpu.Trapped _) as s -> Done s
    | Cpu.Running -> (
        match check t with
        | Error e -> Exhausted e
        | Ok () ->
            let slice =
              match t.fuel with
              | None -> cpu_slice
              | Some f -> min cpu_slice f
            in
            (* the block-compiled tier charges fuel under the same
               contract as Cpu.run (one step per retired instruction,
               interrupt entry or trapping access), so budget outcomes
               are tier-independent *)
            let ran = Cpu.run_blocks cpu ~fuel:slice in
            spend t ran;
            (* run_blocks returning short without a status change cannot
               happen, but guard against a zero-progress loop anyway. *)
            if ran = 0 && Cpu.status cpu = Cpu.Running then Exhausted Fuel
            else go ())
  in
  go ()
