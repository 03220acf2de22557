module K = Codesign_sim.Kernel
module Cpu = Codesign_isa.Cpu
module Logic_sim = Codesign_rtl.Logic_sim
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

let unlimited () = { fuel = None; deadline_ns = None; poll_countdown = poll_period }

let with_fuel t ~fuel =
  if fuel <= 0 then invalid_arg "Budget.with_fuel: non-positive fuel";
  { fuel = Some fuel; deadline_ns = t.deadline_ns; poll_countdown = poll_period }

let is_unlimited t = t.fuel = None && t.deadline_ns = None

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

let run_kernel t ?(expect_quiescent = false) k =
  let until = Option.map (fun f -> K.now k + f) t.fuel in
  let stop = match t.deadline_ns with None -> None | Some _ -> Some (stop_poll t) in
  let before = K.now k in
  let stats = K.run ?until ?stop ~expect_quiescent k in
  spend t (K.now k - before);
  if K.has_pending_events k then
    (* Bounded runs coast the clock to [until], so reaching the fuel
       bound and being deadline-stopped are distinguished by whether the
       clock made it there. *)
    match until with
    | Some u when K.now k >= u -> Exhausted Fuel
    | _ -> Exhausted Deadline
  else Done stats (* drained: finished even if the deadline just passed *)

(* Slice sizes: big enough that the per-slice deadline read is noise,
   small enough that a deadline cuts a spinning model off promptly. *)
let cpu_slice = 4096
let logic_chunk = 1024

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

let run_logic t sim ~cycles =
  let rec go remaining ran =
    if remaining = 0 then Done ran
    else
      match check t with
      | Error e -> Exhausted e
      | Ok () ->
          let chunk =
            let c = min logic_chunk remaining in
            match t.fuel with None -> c | Some f -> min c f
          in
          for _ = 1 to chunk do
            Logic_sim.clock_cycle sim
          done;
          spend t chunk;
          go (remaining - chunk) (ran + chunk)
  in
  if cycles < 0 then invalid_arg "Budget.run_logic: negative cycles"
  else go cycles 0
