type stats = {
  sends : int;
  messages : int;
  blocked_sends : int;
  recv_blocks : int;
}

type 'a t = {
  kernel : Kernel.t;
  name : string;
  cap : int;
  latency : int;
  lane : int;
  buffer : 'a Queue.t;
  waiting_senders : ('a * (unit -> unit)) Queue.t;
  waiting_receivers : ('a option ref * (unit -> unit)) Queue.t;
  mutable sends : int;
  mutable messages : int;
  mutable blocked_sends : int;
  mutable recv_blocks : int;
  mutable send_seq : int;
  mutable route : (int -> (unit -> unit) -> unit) option;
}

let create ?(depth = 0) ?(latency = 0) ?(name = "chan") kernel () =
  if depth < 0 then invalid_arg "Channel.create: negative depth";
  if latency < 0 then invalid_arg "Channel.create: negative latency";
  {
    kernel;
    name;
    cap = depth;
    latency;
    (* Every channel takes a lane even when it never uses one, so lane
       numbering depends only on creation order — the same network built
       on one wheel or on per-partition wheels assigns any channel subset
       the same relative lane order. *)
    lane = Kernel.alloc_lane kernel;
    buffer = Queue.create ();
    waiting_senders = Queue.create ();
    waiting_receivers = Queue.create ();
    sends = 0;
    messages = 0;
    blocked_sends = 0;
    recv_blocks = 0;
    send_seq = 0;
    route = None;
  }

let name c = c.name
let depth c = c.cap
let latency c = c.latency
let lane c = c.lane
let occupancy c = Queue.length c.buffer

let set_route c route =
  if c.latency < 1 then
    invalid_arg
      (Printf.sprintf
         "Channel.set_route: channel %S has zero lookahead (latency 0); a \
          routed channel needs latency >= 1"
         c.name);
  c.route <- Some route

let stats c =
  {
    sends = c.sends;
    messages = c.messages;
    blocked_sends = c.blocked_sends;
    recv_blocks = c.recv_blocks;
  }

type 'a snap = {
  s_buffer : 'a list;  (** front first *)
  s_sends : int;
  s_messages : int;
  s_blocked_sends : int;
  s_recv_blocks : int;
  s_send_seq : int;
}

let snapshot c =
  {
    s_buffer = List.of_seq (Queue.to_seq c.buffer);
    s_sends = c.sends;
    s_messages = c.messages;
    s_blocked_sends = c.blocked_sends;
    s_recv_blocks = c.recv_blocks;
    s_send_seq = c.send_seq;
  }

let restore c s =
  Queue.clear c.buffer;
  List.iter (fun v -> Queue.push v c.buffer) s.s_buffer;
  (* Waiting senders/receivers hold one-shot continuations belonging to
     the timeline the snapshot was taken on; they are abandoned, never
     resumed.  Forked worlds re-spawn their communicating processes. *)
  Queue.clear c.waiting_senders;
  Queue.clear c.waiting_receivers;
  c.sends <- s.s_sends;
  c.messages <- s.s_messages;
  c.blocked_sends <- s.s_blocked_sends;
  c.recv_blocks <- s.s_recv_blocks;
  c.send_seq <- s.s_send_seq

(* After removing from the buffer, a blocked sender (if any) can deposit
   its value. *)
let refill c =
  if
    (not (Queue.is_empty c.waiting_senders))
    && Queue.length c.buffer < c.cap
  then begin
    let v, resume = Queue.pop c.waiting_senders in
    Queue.push v c.buffer;
    resume ()
  end

(* Receiver side of a latency channel: the message materialises at the
   destination [latency] ticks after the send.  A waiting receiver gets
   a direct hand-off; otherwise the value parks in the (unbounded for
   this mode) buffer. *)
let arrive c v =
  if not (Queue.is_empty c.waiting_receivers) then begin
    let cell, resume = Queue.pop c.waiting_receivers in
    cell := Some v;
    c.messages <- c.messages + 1;
    resume ()
  end
  else Queue.push v c.buffer

(* A latency send never blocks: the channel behaves as a delay line with
   unbounded in-flight capacity (depth is ignored), which is exactly the
   decoupling that gives a partitioned run its lookahead.  Delivery goes
   through the arrival lane keyed by (channel lane, send sequence), so
   its dispatch position at the destination timestamp is a property of
   the communication — identical whether the arrival was pushed locally
   (serial wheel) or injected at a partition barrier. *)
let send_latent c v =
  c.sends <- c.sends + 1;
  let seq = c.send_seq in
  c.send_seq <- seq + 1;
  let deliver () = arrive c v in
  match c.route with
  | None ->
      Kernel.at_keyed c.kernel
        ~time:(Kernel.now c.kernel + c.latency)
        ~key:c.lane ~seq deliver
  | Some route -> route seq deliver

let try_send c v =
  if c.latency > 0 then begin
    send_latent c v;
    true
  end
  else if not (Queue.is_empty c.waiting_receivers) then begin
    (* Direct hand-off: buffer is necessarily empty when receivers wait. *)
    let cell, resume = Queue.pop c.waiting_receivers in
    cell := Some v;
    c.sends <- c.sends + 1;
    c.messages <- c.messages + 1;
    resume ();
    true
  end
  else if Queue.length c.buffer < c.cap then begin
    Queue.push v c.buffer;
    c.sends <- c.sends + 1;
    true
  end
  else false

let send c v =
  if not (try_send c v) then begin
    c.blocked_sends <- c.blocked_sends + 1;
    Kernel.suspend ~register:(fun resume ->
        Queue.push (v, resume) c.waiting_senders);
    c.sends <- c.sends + 1
  end

let send_cb c self v k =
  if try_send c v then k ()
  else begin
    c.blocked_sends <- c.blocked_sends + 1;
    Kernel.suspend_cb self
      ~register:(fun resume -> Queue.push (v, resume) c.waiting_senders)
      (fun () ->
        c.sends <- c.sends + 1;
        k ())
  end

(* A receive finds a value ready in the buffer, or — on a rendezvous
   channel — with a blocked sender. *)
let ready c =
  (not (Queue.is_empty c.buffer))
  || (c.cap = 0 && not (Queue.is_empty c.waiting_senders))

(* Take the ready value; [ready c] must hold. *)
let take c =
  if not (Queue.is_empty c.buffer) then begin
    let v = Queue.pop c.buffer in
    c.messages <- c.messages + 1;
    refill c;
    v
  end
  else begin
    (* rendezvous hand-off from a blocked sender *)
    let v, resume = Queue.pop c.waiting_senders in
    c.messages <- c.messages + 1;
    resume ();
    v
  end

let try_recv c = if ready c then Some (take c) else None

(* A receiver resumed without a direct hand-off finds the value a sender
   refilled into the buffer while it was queued. *)
let received c cell = match !cell with Some v -> v | None -> take c

(* The paths that find a value ready skip [try_recv]'s option, so a
   receive that does not block allocates nothing. *)
let recv c =
  if ready c then take c
  else begin
    c.recv_blocks <- c.recv_blocks + 1;
    let cell = ref None in
    Kernel.suspend ~register:(fun resume ->
        Queue.push (cell, resume) c.waiting_receivers);
    received c cell
  end

let recv_cb c self k =
  if ready c then k (take c)
  else begin
    c.recv_blocks <- c.recv_blocks + 1;
    let cell = ref None in
    Kernel.suspend_cb self
      ~register:(fun resume -> Queue.push (cell, resume) c.waiting_receivers)
      (fun () -> k (received c cell))
  end
