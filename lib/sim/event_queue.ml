type entry = { time : int; key : int; seq : int; thunk : unit -> unit }

type t = {
  mutable heap : entry array;
  mutable len : int;
  mutable next_seq : int;
  mutable pushed : int;
}

let dummy = { time = 0; key = 0; seq = 0; thunk = ignore }

let create () = { heap = Array.make 64 dummy; len = 0; next_seq = 0; pushed = 0 }

(* Ordering: time, then key, then seq.  Ordinary events all carry
   [key = max_int] and a queue-assigned monotone [seq], so among
   themselves the queue is the historic stable (time, insertion-order)
   priority queue.  Keyed events — the cross-partition "arrival lane" —
   carry a caller-assigned (key, seq) pair, so their position within a
   timestamp is a property of the communication itself, not of when the
   event was physically pushed onto this wheel. *)
let before a b =
  a.time < b.time
  || (a.time = b.time
      && (a.key < b.key || (a.key = b.key && a.seq < b.seq)))

let swap t i j =
  let tmp = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- tmp

let insert t e =
  if t.len = Array.length t.heap then begin
    let h = Array.make (2 * t.len) dummy in
    Array.blit t.heap 0 h 0 t.len;
    t.heap <- h
  end;
  t.pushed <- t.pushed + 1;
  t.heap.(t.len) <- e;
  t.len <- t.len + 1;
  let i = ref (t.len - 1) in
  while !i > 0 && before t.heap.(!i) t.heap.((!i - 1) / 2) do
    swap t !i ((!i - 1) / 2);
    i := (!i - 1) / 2
  done

let push t ~time thunk =
  if time < 0 then invalid_arg "Event_queue.push: negative time";
  let e = { time; key = max_int; seq = t.next_seq; thunk } in
  t.next_seq <- t.next_seq + 1;
  insert t e

let push_keyed t ~time ~key ~seq thunk =
  if time < 0 then invalid_arg "Event_queue.push_keyed: negative time";
  if key < 0 || key = max_int then
    invalid_arg "Event_queue.push_keyed: key must be in [0, max_int)";
  insert t { time; key; seq; thunk }

let sift_down t =
  let i = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let m = ref !i in
    if l < t.len && before t.heap.(l) t.heap.(!m) then m := l;
    if r < t.len && before t.heap.(r) t.heap.(!m) then m := r;
    if !m = !i then continue_ := false
    else begin
      swap t !i !m;
      i := !m
    end
  done

let remove_top t =
  let top = t.heap.(0) in
  t.len <- t.len - 1;
  t.heap.(0) <- t.heap.(t.len);
  t.heap.(t.len) <- dummy;
  sift_down t;
  top

let count_push t =
  t.next_seq <- t.next_seq + 1;
  t.pushed <- t.pushed + 1

let pop t =
  if t.len = 0 then None
  else begin
    let top = remove_top t in
    Some (top.time, top.thunk)
  end

type slot = { mutable s_time : int; mutable s_thunk : unit -> unit }

let slot () = { s_time = 0; s_thunk = ignore }

let pop_into t ~limit out =
  t.len > 0
  && t.heap.(0).time <= limit
  && begin
       let top = remove_top t in
       out.s_time <- top.time;
       out.s_thunk <- top.thunk;
       true
     end

type snap = {
  s_heap : entry array;
  s_len : int;
  s_next_seq : int;
  s_pushed : int;
}

let snapshot t =
  {
    s_heap = Array.sub t.heap 0 t.len;
    s_len = t.len;
    s_next_seq = t.next_seq;
    s_pushed = t.pushed;
  }

let restore t s =
  let cap = max 64 s.s_len in
  if Array.length t.heap < cap then t.heap <- Array.make cap dummy;
  Array.blit s.s_heap 0 t.heap 0 s.s_len;
  Array.fill t.heap s.s_len (Array.length t.heap - s.s_len) dummy;
  t.len <- s.s_len;
  t.next_seq <- s.s_next_seq;
  t.pushed <- s.s_pushed

let peek_time t = if t.len = 0 then None else Some t.heap.(0).time
let min_time t = if t.len = 0 then max_int else t.heap.(0).time
let size t = t.len
let is_empty t = t.len = 0
let pushed_total t = t.pushed
