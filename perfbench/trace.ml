(* In-memory spans around public calls, written out once as Chrome
   trace-event JSON (Perfetto and chrome://tracing open it directly).
   Spans nest by call structure: each records the span that was open
   when it started as its parent. *)

module Json = Codesign_obs.Json
module Clock = Codesign_obs.Clock

type span = {
  id : int;
  parent : int;  (** -1 for a top-level span *)
  name : string;  (** the public call, e.g. ["Partition.kl"] *)
  cat : string;  (** the layer, named after its library directory *)
  start_ns : int64;
  dur_s : float;
  args : (string * Json.t) list;
}

type t = {
  origin : int64;
  mutable next_id : int;
  mutable open_ids : int list;
  mutable spans : span list;  (** most recent first *)
}

let create () =
  { origin = Clock.now_ns (); next_id = 0; open_ids = []; spans = [] }

let with_span t ~name ~cat ?(args = []) f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.open_ids with p :: _ -> p | [] -> -1 in
  t.open_ids <- id :: t.open_ids;
  let start_ns = Clock.now_ns () in
  let close () =
    let dur_s = Clock.elapsed_s ~since:start_ns in
    t.open_ids <- List.tl t.open_ids;
    t.spans <- { id; parent; name; cat; start_ns; dur_s; args } :: t.spans
  in
  match f () with
  | r ->
      close ();
      r
  | exception e ->
      close ();
      raise e

(* Seconds one span takes to record, timed over a batch of empty ones. *)
let span_cost_s () =
  let t = create () and n = 20_000 in
  let t0 = Clock.now_ns () in
  for _ = 1 to n do
    with_span t ~name:"" ~cat:"" ignore
  done;
  Clock.elapsed_s ~since:t0 /. float_of_int n

(* Spans in start order. *)
let spans t = List.rev t.spans

let total ?(pred = fun _ -> true) spans =
  List.fold_left (fun acc s -> if pred s then acc +. s.dur_s else acc) 0. spans

let arg_str key s =
  match List.assoc_opt key s.args with Some (Json.Str v) -> v | _ -> ""

let to_json t ~meta =
  let us ns = Int64.to_float ns /. 1e3 in
  let event s =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("cat", Json.Str s.cat);
        ("ph", Json.Str "X");
        ("ts", Json.Float (us (Int64.sub s.start_ns t.origin)));
        ("dur", Json.Float (s.dur_s *. 1e6));
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
        ( "args",
          Json.Obj
            ((("id", Json.Int s.id) :: ("parent", Json.Int s.parent) :: s.args)) );
      ]
  in
  Json.Obj
    [
      ("traceEvents", Json.List (List.map event (spans t)));
      ("displayTimeUnit", Json.Str "ms");
      ("otherData", Json.Obj meta);
    ]
