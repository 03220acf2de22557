(* A binary min-heap kept as a structure of arrays: entry [i] is
   (times.(i), keys.(i), seqs.(i), thunks.(i)).  The three ordering
   fields live in unboxed [int] arrays, so comparisons read no heap
   blocks, and a push allocates nothing once the arrays have grown.
   Sifts move a hole instead of swapping entries: each level costs one
   write per array, and only the thunk write goes through the write
   barrier.  Slots at [len] and beyond hold [ignore], so a popped thunk
   is not kept alive by the queue. *)
type t = {
  mutable times : int array;
  mutable keys : int array;
  mutable seqs : int array;
  mutable thunks : (unit -> unit) array;
  mutable len : int;
  mutable next_seq : int;
  mutable pushed : int;
}

let initial_capacity = 64

let create () =
  {
    times = Array.make initial_capacity 0;
    keys = Array.make initial_capacity 0;
    seqs = Array.make initial_capacity 0;
    thunks = Array.make initial_capacity ignore;
    len = 0;
    next_seq = 0;
    pushed = 0;
  }

let grow_to t cap =
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.times <- extend t.times 0;
  t.keys <- extend t.keys 0;
  t.seqs <- extend t.seqs 0;
  t.thunks <- extend t.thunks ignore

(* Ordering: time, then key, then seq.  Ordinary events all carry
   [key = max_int] and a queue-assigned monotone [seq], so among
   themselves the queue is the historic stable (time, insertion-order)
   priority queue.  Keyed events — the cross-partition "arrival lane" —
   carry a caller-assigned (key, seq) pair, so their position within a
   timestamp is a property of the communication itself, not of when the
   event was physically pushed onto this wheel.  [precedes t i ~time
   ~key ~seq] is "entry [i] comes before (time, key, seq)". *)
let precedes t i ~time ~key ~seq =
  let ti = Array.unsafe_get t.times i in
  ti < time
  || ti = time
     && (let ki = Array.unsafe_get t.keys i in
         ki < key || (ki = key && Array.unsafe_get t.seqs i < seq))

let set t i ~time ~key ~seq thunk =
  Array.unsafe_set t.times i time;
  Array.unsafe_set t.keys i key;
  Array.unsafe_set t.seqs i seq;
  Array.unsafe_set t.thunks i thunk

(* Move entry [src] into slot [dst]. *)
let move t ~src ~dst =
  Array.unsafe_set t.times dst (Array.unsafe_get t.times src);
  Array.unsafe_set t.keys dst (Array.unsafe_get t.keys src);
  Array.unsafe_set t.seqs dst (Array.unsafe_get t.seqs src);
  Array.unsafe_set t.thunks dst (Array.unsafe_get t.thunks src)

let insert t ~time ~key ~seq thunk =
  if t.len = Array.length t.times then grow_to t (2 * t.len);
  t.pushed <- t.pushed + 1;
  let hole = ref t.len in
  t.len <- t.len + 1;
  (* sift up: parents that come after the new entry move down *)
  let rising = ref true in
  while !rising && !hole > 0 do
    let parent = (!hole - 1) / 2 in
    if precedes t parent ~time ~key ~seq then rising := false
    else begin
      move t ~src:parent ~dst:!hole;
      hole := parent
    end
  done;
  set t !hole ~time ~key ~seq thunk

let push t ~time thunk =
  if time < 0 then invalid_arg "Event_queue.push: negative time";
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  insert t ~time ~key:max_int ~seq thunk

let push_keyed t ~time ~key ~seq thunk =
  if time < 0 then invalid_arg "Event_queue.push_keyed: negative time";
  if key < 0 || key = max_int then
    invalid_arg "Event_queue.push_keyed: key must be in [0, max_int)";
  insert t ~time ~key ~seq thunk

(* Drop the root (the caller has read it): the last entry refills the
   hole the root leaves, sifting down past every smaller child. *)
let remove_top t =
  let last = t.len - 1 in
  t.len <- last;
  let time = Array.unsafe_get t.times last
  and key = Array.unsafe_get t.keys last
  and seq = Array.unsafe_get t.seqs last
  and thunk = Array.unsafe_get t.thunks last in
  Array.unsafe_set t.thunks last ignore;
  if last > 0 then begin
    let hole = ref 0 in
    let sinking = ref true in
    while !sinking do
      let l = (2 * !hole) + 1 in
      if l >= last then sinking := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < last
            && precedes t r ~time:(Array.unsafe_get t.times l)
                 ~key:(Array.unsafe_get t.keys l)
                 ~seq:(Array.unsafe_get t.seqs l)
          then r
          else l
        in
        if precedes t c ~time ~key ~seq then begin
          move t ~src:c ~dst:!hole;
          hole := c
        end
        else sinking := false
      end
    done;
    set t !hole ~time ~key ~seq thunk
  end

let count_push t =
  t.next_seq <- t.next_seq + 1;
  t.pushed <- t.pushed + 1

let reserve t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let push_reserved t ~time ~seq thunk =
  if time < 0 then invalid_arg "Event_queue.push_reserved: negative time";
  if seq < 0 || seq >= t.next_seq then
    invalid_arg "Event_queue.push_reserved: seq was never reserved";
  insert t ~time ~key:max_int ~seq thunk

let pop t =
  if t.len = 0 then None
  else begin
    let time = t.times.(0) and thunk = t.thunks.(0) in
    remove_top t;
    Some (time, thunk)
  end

type slot = { mutable s_time : int; mutable s_thunk : unit -> unit }

let slot () = { s_time = 0; s_thunk = ignore }

let pop_into t ~limit out =
  t.len > 0
  && t.times.(0) <= limit
  && begin
       out.s_time <- t.times.(0);
       out.s_thunk <- t.thunks.(0);
       remove_top t;
       true
     end

type snap = {
  s_times : int array;
  s_keys : int array;
  s_seqs : int array;
  s_thunks : (unit -> unit) array;
  s_next_seq : int;
  s_pushed : int;
}

let snapshot t =
  {
    s_times = Array.sub t.times 0 t.len;
    s_keys = Array.sub t.keys 0 t.len;
    s_seqs = Array.sub t.seqs 0 t.len;
    s_thunks = Array.sub t.thunks 0 t.len;
    s_next_seq = t.next_seq;
    s_pushed = t.pushed;
  }

let restore t s =
  let n = Array.length s.s_times in
  if Array.length t.times < n then grow_to t n;
  Array.blit s.s_times 0 t.times 0 n;
  Array.blit s.s_keys 0 t.keys 0 n;
  Array.blit s.s_seqs 0 t.seqs 0 n;
  Array.blit s.s_thunks 0 t.thunks 0 n;
  Array.fill t.thunks n (Array.length t.thunks - n) ignore;
  t.len <- n;
  t.next_seq <- s.s_next_seq;
  t.pushed <- s.s_pushed

let peek_time t = if t.len = 0 then None else Some t.times.(0)
let min_time t = if t.len = 0 then max_int else t.times.(0)
let size t = t.len
let is_empty t = t.len = 0
let pushed_total t = t.pushed
