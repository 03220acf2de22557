type 'a t = {
  name : string;
  mutable value : 'a;
  mutable waiters : (unit -> unit) list;  (** in reverse arrival order *)
}

let create ?(name = "sig") value = { name; value; waiters = [] }
let read s = s.value
let name s = s.name

let wake s =
  let ws = List.rev s.waiters in
  s.waiters <- [];
  List.iter (fun resume -> resume ()) ws

let write s v =
  if s.value <> v then begin
    s.value <- v;
    wake s
  end

let pulse s v =
  s.value <- v;
  wake s

let await_change s =
  Kernel.suspend ~register:(fun resume -> s.waiters <- resume :: s.waiters);
  s.value

let rec await s pred =
  if pred s.value then s.value
  else begin
    ignore (await_change s);
    await s pred
  end

type 'a snap = 'a

let snapshot s = s.value

let restore s v =
  s.value <- v;
  (* Waiters hold one-shot continuations from the snapshot's timeline;
     abandon them — forked worlds re-spawn their processes. *)
  s.waiters <- []
