type t = { error : string; attempts : int; elapsed : int }

let to_json d =
  Json.Obj
    [
      ("error", Json.Str d.error);
      ("attempts", Json.Int d.attempts);
      ("elapsed", Json.Int d.elapsed);
    ]

let ( let* ) = Result.bind

let of_json j =
  let* error = Json.field "error" Json.to_str j in
  let* attempts = Json.field "attempts" Json.to_int j in
  let* elapsed = Json.field "elapsed" Json.to_int j in
  Ok { error; attempts; elapsed }
