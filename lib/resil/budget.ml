module K = Codesign_sim.Kernel
module Clock = Codesign_obs.Clock

type exhausted = Fuel | Deadline

let exhausted_name = function Fuel -> "fuel" | Deadline -> "deadline"

type 'a outcome = Done of 'a | Exhausted of exhausted

type t = {
  fuel : int option;
  deadline_ns : int64 option;
  mutable poll_countdown : int;
}

(* How many stop_poll calls between wall-clock reads.  One monotonic
   read per 256 events keeps the deadline check off the dispatch hot
   path while bounding overshoot to a few microseconds of events. *)
let poll_period = 256

let create ?deadline_ms () =
  (match deadline_ms with
  | Some d when d <= 0 -> invalid_arg "Budget.create: non-positive deadline"
  | _ -> ());
  let deadline_ns =
    Option.map
      (fun ms -> Int64.add (Clock.now_ns ()) (Int64.of_int (ms * 1_000_000)))
      deadline_ms
  in
  { fuel = None; deadline_ns; poll_countdown = poll_period }

let with_fuel t ~fuel =
  if fuel <= 0 then invalid_arg "Budget.with_fuel: non-positive fuel";
  { fuel = Some fuel; deadline_ns = t.deadline_ns; poll_countdown = poll_period }

let past_deadline t =
  match t.deadline_ns with
  | None -> false
  | Some d -> Int64.compare (Clock.now_ns ()) d >= 0

(* Only built for a budget with a deadline. *)
let stop_poll t () =
  t.poll_countdown <- t.poll_countdown - 1;
  t.poll_countdown <= 0
  && begin
       t.poll_countdown <- poll_period;
       past_deadline t
     end

let run_kernel t k =
  let bound =
    match t.fuel with Some f -> K.Until (K.now k + f) | None -> K.Quiesce
  in
  let stop = Option.map (fun _ -> stop_poll t) t.deadline_ns in
  let stats = K.run ~bound ?stop k in
  if K.has_pending_events k then
    (* Bounded runs coast the clock to the bound, so reaching the fuel
       bound and being deadline-stopped are distinguished by whether the
       clock made it there. *)
    match bound with
    | K.Until u when K.now k >= u -> Exhausted Fuel
    | _ -> Exhausted Deadline
  else Done stats (* drained: finished even if the deadline just passed *)
