(* Two structures share one (time, key, seq) order.

   Buckets.  An ordinary [push] goes into a FIFO bucket for its
   timestamp.  The bucket is found through a fixed ring of [slots]
   slots indexed by [time land mask]; a slot is owned by one time at a
   time ([owner], -1 when free), and its bucket is a linked list of
   nodes from a shared pool ([nseq], [nthunk], [next], with the free
   nodes chained through [next]).  [owned] is a min-heap of the times
   that own a slot, so the earliest bucket is [owned.(0)] and nothing
   scans empty slots.

   Heap.  Keyed arrivals, [push_reserved] events and pushes whose slot
   another time holds go into a binary min-heap kept as a structure of
   arrays: entry [i] is (times.(i), keys.(i), seqs.(i), thunks.(i)).
   Sifts move a hole instead of swapping entries.  Slots at [len] and
   beyond hold [ignore], so a popped thunk is not kept alive.

   [times.(0)] and [owned.(0)] hold [max_int] while their structure is
   empty, so [min_time], read on every in-place [Kernel.wait], is two
   loads and a compare.

   Why the earlier of the two heads is the earliest event: a bucket
   holds only [push]es, each under a fresh sequence number (larger than
   every number handed out before it, reserved ones included), so it is
   sorted by seq; and from its creation until it drains it takes every
   [push] at its time, because the slot stays its time's.  Ordinary
   events at the same time can still sit in the heap — pushed before
   the bucket existed, restored from a snapshot, or pushed under a
   reserved number — so [pop_into] compares the heap's root with the
   earliest bucket's head by (time, key, seq). *)

let slots = 64
let mask = slots - 1
let initial_capacity = 64

type t = {
  mutable times : int array;
  mutable keys : int array;
  mutable seqs : int array;
  mutable thunks : (unit -> unit) array;
  mutable len : int;
  owner : int array;  (** slot -> the time it holds, or -1 *)
  head : int array;  (** slot -> first node of its bucket *)
  tail : int array;  (** slot -> last node of its bucket *)
  owned : int array;  (** min-heap of the owning times *)
  mutable n_owned : int;
  mutable nseq : int array;
  mutable nthunk : (unit -> unit) array;
  mutable next : int array;  (** next node of a bucket, or of the free list *)
  mutable free : int;  (** first free node, or -1 *)
  mutable next_seq : int;
  mutable pushed : int;
}

(* Chain nodes [lo, hi) onto the front of the free list. *)
let chain_free t lo hi =
  for n = lo to hi - 2 do
    t.next.(n) <- n + 1
  done;
  t.next.(hi - 1) <- t.free;
  t.free <- lo

let create () =
  let t =
    {
      times = Array.make initial_capacity max_int;
      keys = Array.make initial_capacity 0;
      seqs = Array.make initial_capacity 0;
      thunks = Array.make initial_capacity ignore;
      len = 0;
      owner = Array.make slots (-1);
      head = Array.make slots (-1);
      tail = Array.make slots (-1);
      owned = Array.make slots max_int;
      n_owned = 0;
      nseq = Array.make initial_capacity 0;
      nthunk = Array.make initial_capacity ignore;
      next = Array.make initial_capacity (-1);
      free = -1;
      next_seq = 0;
      pushed = 0;
    }
  in
  chain_free t 0 initial_capacity;
  t

let extend a len cap fill =
  let b = Array.make cap fill in
  Array.blit a 0 b 0 len;
  b

let grow_to t cap =
  t.times <- extend t.times t.len cap 0;
  t.keys <- extend t.keys t.len cap 0;
  t.seqs <- extend t.seqs t.len cap 0;
  t.thunks <- extend t.thunks t.len cap ignore

(* ---- the heap ---------------------------------------------------- *)

(* [precedes t i ~time ~key ~seq] is "heap entry [i] comes before
   (time, key, seq)".  Ordinary events carry [key = max_int], so keyed
   arrivals come first within a timestamp. *)
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
  else Array.unsafe_set t.times 0 max_int

(* ---- the buckets ------------------------------------------------- *)

(* [owned] holds at most [slots] distinct times, so it never grows. *)
let owned_push t time =
  let hole = ref t.n_owned in
  t.n_owned <- t.n_owned + 1;
  let rising = ref true in
  while !rising && !hole > 0 do
    let parent = (!hole - 1) / 2 in
    let pt = Array.unsafe_get t.owned parent in
    if pt < time then rising := false
    else begin
      Array.unsafe_set t.owned !hole pt;
      hole := parent
    end
  done;
  Array.unsafe_set t.owned !hole time

let owned_pop t =
  let last = t.n_owned - 1 in
  t.n_owned <- last;
  let time = Array.unsafe_get t.owned last in
  let hole = ref 0 in
  let sinking = ref true in
  while !sinking do
    let l = (2 * !hole) + 1 in
    if l >= last then sinking := false
    else begin
      let r = l + 1 in
      let c =
        if r < last && Array.unsafe_get t.owned r < Array.unsafe_get t.owned l
        then r
        else l
      in
      let ct = Array.unsafe_get t.owned c in
      if ct < time then begin
        Array.unsafe_set t.owned !hole ct;
        hole := c
      end
      else sinking := false
    end
  done;
  Array.unsafe_set t.owned !hole (if last > 0 then time else max_int)

let grow_nodes t =
  let cap = Array.length t.nseq in
  t.nseq <- extend t.nseq cap (2 * cap) 0;
  t.nthunk <- extend t.nthunk cap (2 * cap) ignore;
  t.next <- extend t.next cap (2 * cap) (-1);
  chain_free t cap (2 * cap)

(* A node holding (seq, thunk) at the end of no list. *)
let alloc t seq thunk =
  if t.free < 0 then grow_nodes t;
  let n = t.free in
  t.free <- Array.unsafe_get t.next n;
  Array.unsafe_set t.nseq n seq;
  Array.unsafe_set t.nthunk n thunk;
  Array.unsafe_set t.next n (-1);
  n

let release t n =
  Array.unsafe_set t.nthunk n ignore;
  Array.unsafe_set t.next n t.free;
  t.free <- n

(* ---- pushing ----------------------------------------------------- *)

let push t ~time thunk =
  if time < 0 then invalid_arg "Event_queue.push: negative time";
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.pushed <- t.pushed + 1;
  let s = time land mask in
  let o = Array.unsafe_get t.owner s in
  if o = time then begin
    let n = alloc t seq thunk in
    Array.unsafe_set t.next (Array.unsafe_get t.tail s) n;
    Array.unsafe_set t.tail s n
  end
  else if o < 0 then begin
    let n = alloc t seq thunk in
    Array.unsafe_set t.owner s time;
    Array.unsafe_set t.head s n;
    Array.unsafe_set t.tail s n;
    owned_push t time
  end
  else insert t ~time ~key:max_int ~seq thunk

let push_keyed t ~time ~key ~seq thunk =
  if time < 0 then invalid_arg "Event_queue.push_keyed: negative time";
  if key < 0 || key = max_int then
    invalid_arg "Event_queue.push_keyed: key must be in [0, max_int)";
  t.pushed <- t.pushed + 1;
  insert t ~time ~key ~seq thunk

let count_pushes t n =
  t.next_seq <- t.next_seq + n;
  t.pushed <- t.pushed + n

let reserve t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let push_reserved t ~time ~seq thunk =
  if time < 0 then invalid_arg "Event_queue.push_reserved: negative time";
  if seq < 0 || seq >= t.next_seq then
    invalid_arg "Event_queue.push_reserved: seq was never reserved";
  t.pushed <- t.pushed + 1;
  insert t ~time ~key:max_int ~seq thunk

(* ---- popping ----------------------------------------------------- *)

type slot = { mutable s_time : int; mutable s_thunk : unit -> unit }

let slot () = { s_time = 0; s_thunk = ignore }

let pop_heap t ~limit out =
  t.len > 0
  && Array.unsafe_get t.times 0 <= limit
  && begin
       out.s_time <- Array.unsafe_get t.times 0;
       out.s_thunk <- Array.unsafe_get t.thunks 0;
       remove_top t;
       true
     end

let pop_into t ~limit out =
  if t.n_owned = 0 then pop_heap t ~limit out
  else
    let time = Array.unsafe_get t.owned 0 in
    let s = time land mask in
    let n = Array.unsafe_get t.head s in
    if
      t.len > 0
      && precedes t 0 ~time ~key:max_int ~seq:(Array.unsafe_get t.nseq n)
    then pop_heap t ~limit out
    else
      time <= limit
      && begin
           out.s_time <- time;
           out.s_thunk <- Array.unsafe_get t.nthunk n;
           let rest = Array.unsafe_get t.next n in
           release t n;
           if rest < 0 then begin
             Array.unsafe_set t.owner s (-1);
             owned_pop t
           end
           else Array.unsafe_set t.head s rest;
           true
         end

let min_time t =
  let h = Array.unsafe_get t.times 0 and b = Array.unsafe_get t.owned 0 in
  if b < h then b else h

let is_empty t = t.len = 0 && t.n_owned = 0
let pushed_total t = t.pushed

(* ---- snapshot / restore ------------------------------------------ *)

type snap = {
  s_times : int array;
  s_keys : int array;
  s_seqs : int array;
  s_thunks : (unit -> unit) array;
  s_next_seq : int;
  s_pushed : int;
}

(* The events sorted by (time, key, seq), which is unique per event:
   one contents, one snapshot, however they are spread over the two
   structures. *)
let snapshot t =
  let events = ref [] in
  let add time key seq thunk = events := (time, key, seq, thunk) :: !events in
  for i = 0 to t.len - 1 do
    add t.times.(i) t.keys.(i) t.seqs.(i) t.thunks.(i)
  done;
  for i = 0 to t.n_owned - 1 do
    let time = t.owned.(i) in
    let n = ref t.head.(time land mask) in
    while !n >= 0 do
      add time max_int t.nseq.(!n) t.nthunk.(!n);
      n := t.next.(!n)
    done
  done;
  let sorted = Array.of_list !events in
  Array.sort
    (fun (t1, k1, s1, _) (t2, k2, s2, _) -> compare (t1, k1, s1) (t2, k2, s2))
    sorted;
  let field f = Array.map f sorted in
  {
    s_times = field (fun (time, _, _, _) -> time);
    s_keys = field (fun (_, key, _, _) -> key);
    s_seqs = field (fun (_, _, seq, _) -> seq);
    s_thunks = field (fun (_, _, _, thunk) -> thunk);
    s_next_seq = t.next_seq;
    s_pushed = t.pushed;
  }

(* Every restored event goes into the heap: a sorted array is a valid
   heap, and the buckets made afterwards hold fresher numbers. *)
let restore t s =
  for i = 0 to t.n_owned - 1 do
    let sl = t.owned.(i) land mask in
    let n = ref t.head.(sl) in
    while !n >= 0 do
      let rest = t.next.(!n) in
      release t !n;
      n := rest
    done;
    t.owner.(sl) <- -1
  done;
  t.n_owned <- 0;
  t.owned.(0) <- max_int;
  let n = Array.length s.s_times in
  if Array.length t.times < n then grow_to t n;
  t.times.(0) <- max_int;
  Array.blit s.s_times 0 t.times 0 n;
  Array.blit s.s_keys 0 t.keys 0 n;
  Array.blit s.s_seqs 0 t.seqs 0 n;
  Array.blit s.s_thunks 0 t.thunks 0 n;
  Array.fill t.thunks n (Array.length t.thunks - n) ignore;
  t.len <- n;
  t.next_seq <- s.s_next_seq;
  t.pushed <- s.s_pushed
