module Degraded = Codesign_obs.Degraded

let run ~max_retries ~budget ~restore body =
  let policy = Policy.create ~max_retries ~backoff:Policy.No_backoff in
  if Budget.past_deadline budget then
    Error { Degraded.error = "deadline exceeded"; attempts = 0; elapsed = 0 }
  else
    let attempt ~attempt:_ =
      let result =
        match body () with
        | r -> r
        | exception exn -> Error (Printexc.to_string exn)
      in
      if Result.is_error result then restore ();
      result
    in
    match Policy.retry policy attempt with
    | Ok value -> Ok value
    | Error { Policy.attempts; last_error } ->
        Error { Degraded.error = last_error; attempts; elapsed = 0 }
