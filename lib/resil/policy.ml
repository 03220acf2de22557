(* Bounded retry with a deterministic backoff.  See policy.mli for the
   timing contract; the short version is that a zero delay performs no
   wait, so the rebased retry loops in lib/fault reproduce their
   historic schedules exactly. *)

type backoff = No_backoff | Linear of int
type t = { max_retries : int; backoff : backoff }

let create ~max_retries ~backoff =
  if max_retries < 0 then invalid_arg "Policy.create: negative max_retries";
  (match backoff with
  | Linear d when d < 0 -> invalid_arg "Policy.create: negative backoff delay"
  | _ -> ());
  { max_retries; backoff }

let delay t ~attempt =
  match t.backoff with No_backoff -> 0 | Linear base -> base * (attempt + 1)

type 'e exhausted = { attempts : int; last_error : 'e }

let retry t ?(wait = fun _ -> ()) ?(on_retry = fun ~attempt:_ ~delay:_ -> ()) f
    =
  let rec go attempt =
    match f ~attempt with
    | Ok _ as ok -> ok
    | Error e when attempt >= t.max_retries ->
        Error { attempts = attempt + 1; last_error = e }
    | Error _ ->
        let d = delay t ~attempt in
        on_retry ~attempt ~delay:d;
        if d > 0 then wait d;
        go (attempt + 1)
  in
  go 0
