module Degraded = Codesign_obs.Degraded

let run ~max_retries ~budget ~restore body =
  if max_retries < 0 then invalid_arg "Supervisor.run: negative max_retries";
  let give_up error attempts = Error { Degraded.error; attempts; elapsed = 0 } in
  (* [made] attempts have failed so far; the wall deadline is checked
     before every attempt, so a deadline that cut one attempt off ends
     the retries with that attempt's error *)
  let rec attempt made =
    match body () with
    | Ok _ as ok -> ok
    | Error e -> failed (made + 1) e
    | exception exn -> failed (made + 1) (Printexc.to_string exn)
  and failed made e =
    restore ();
    if made > max_retries || Budget.past_deadline budget then give_up e made
    else attempt made
  in
  if Budget.past_deadline budget then give_up "deadline exceeded" 0
  else attempt 0
