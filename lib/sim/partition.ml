module K = Kernel

type post = { p_time : int; p_key : int; p_seq : int; p_run : unit -> unit }

type mailbox = {
  mb_lock : Mutex.t;
  mutable mb_posts : post list;  (** in reverse posting order *)
}

type t = {
  kernels : K.t array;
  mailboxes : mailbox array;
  mutable links : (string * int) list;  (** routed endpoint names, latency *)
  mutable lmin : int;  (** min link latency; max_int when no links *)
}

let create ~partitions =
  if partitions < 1 then invalid_arg "Partition.create: need >= 1 partition";
  {
    kernels = Array.init partitions (fun _ -> K.create ());
    mailboxes =
      Array.init partitions (fun _ ->
          { mb_lock = Mutex.create (); mb_posts = [] });
    links = [];
    lmin = max_int;
  }

let partitions t = Array.length t.kernels
let kernel t i = t.kernels.(i)

let check_link t ~what ~name ~src ~dst ~latency =
  let n = Array.length t.kernels in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg (Printf.sprintf "Partition: %s %S links partition %d -> %d, outside [0, %d)" what name src dst n);
  if latency < 1 then
    invalid_arg
      (Printf.sprintf
         "Partition: %s %S has zero lookahead (latency 0) across a partition \
          boundary (%d -> %d)%s; declare latency >= 1 or colocate the \
          endpoints"
         what name src dst
         (if src = dst then " — a partition self-loop cannot make progress"
          else ""));
  t.links <- (name, latency) :: t.links;
  if latency < t.lmin then t.lmin <- latency

(* Route a channel whose sender lives on partition [src] and receiver on
   partition [dst]: sends post their (time, lane, seq, deliver) record to
   the destination mailbox instead of scheduling locally.  The channel
   object itself must have been created on [dst]'s kernel (delivery runs
   there). *)
let route_channel t ~src ~dst c =
  check_link t ~what:"channel" ~name:(Channel.name c) ~src ~dst
    ~latency:(Channel.latency c);
  let ksrc = t.kernels.(src) and mb = t.mailboxes.(dst) in
  let lane = Channel.lane c and lat = Channel.latency c in
  Channel.set_route c (fun seq deliver ->
      let p = { p_time = K.now ksrc + lat; p_key = lane; p_seq = seq; p_run = deliver } in
      Mutex.lock mb.mb_lock;
      mb.mb_posts <- p :: mb.mb_posts;
      Mutex.unlock mb.mb_lock)

let route_signal t ~src ~dst s =
  check_link t ~what:"signal" ~name:(Signal.name s) ~src ~dst
    ~latency:(Signal.latency s);
  let ksrc = t.kernels.(src) and mb = t.mailboxes.(dst) in
  let lane = Signal.lane s and lat = Signal.latency s in
  Signal.set_route s (fun seq apply ->
      let p = { p_time = K.now ksrc + lat; p_key = lane; p_seq = seq; p_run = apply } in
      Mutex.lock mb.mb_lock;
      mb.mb_posts <- p :: mb.mb_posts;
      Mutex.unlock mb.mb_lock)

(* Barrier step: drain every mailbox into its wheel (keyed injection
   restores the serial dispatch position), then compute the next safe
   bound.  Safety argument: let emin be the earliest pending event across
   all wheels.  Any event a partition generates while dispatching up to
   bound B either stays local (scheduled normally, >= its creation time)
   or crosses a link with latency >= lmin, arriving at >= emin + lmin.
   With B = min(limit, emin + lmin - 1) every cross-partition arrival
   lands strictly after B, so it is injected at the next round's drain
   before any wheel has passed its timestamp — no partition ever
   dispatches ahead of a message it has yet to receive.  Each round
   dispatches the emin event, so emin strictly increases and the loop
   terminates.  A links-free plan gets B = limit in one round. *)
let next_bound t ~limit =
  Array.iteri
    (fun i mb ->
      Mutex.lock mb.mb_lock;
      let posts = mb.mb_posts in
      mb.mb_posts <- [];
      Mutex.unlock mb.mb_lock;
      let k = t.kernels.(i) in
      List.iter
        (fun p ->
          K.at_keyed k
            ~time:(max p.p_time (K.now k))
            ~key:p.p_key ~seq:p.p_seq p.p_run)
        (List.rev posts))
    t.mailboxes;
  let emin =
    Array.fold_left (fun acc k -> min acc (K.next_event_time k)) max_int
      t.kernels
  in
  if emin = max_int || emin > limit then None
  else if t.lmin = max_int then Some limit
  else if emin >= max_int - t.lmin then Some limit
  else Some (min limit (emin + t.lmin - 1))

let run_round t i ~bound = K.run_horizon t.kernels.(i) ~horizon:bound

(* Post-loop settlement shared by the serial and domain-parallel
   drivers: coast everyone to the bound, run the collective deadlock
   check, and merge per-partition statistics. *)
let finish ?until ?(expect_quiescent = false) t =
  (match until with
  | Some u -> Array.iter (fun k -> K.coast k ~time:u) t.kernels
  | None -> ());
  if
    until = None && (not expect_quiescent)
    && Array.for_all (fun k -> not (K.has_pending_events k)) t.kernels
  then begin
    match Array.to_list t.kernels |> List.concat_map K.blocked_non_daemon with
    | [] -> ()
    | stuck ->
        raise (K.Deadlock (List.sort_uniq compare stuck |> String.concat ", "))
  end;
  Array.fold_left
    (fun acc k ->
      let s = K.stats k in
      {
        K.events = acc.K.events + s.K.events;
        scheduled = acc.K.scheduled + s.K.scheduled;
        activations = acc.K.activations + s.K.activations;
        spawned = acc.K.spawned + s.K.spawned;
        end_time = max acc.K.end_time s.K.end_time;
      })
    { K.events = 0; scheduled = 0; activations = 0; spawned = 0; end_time = 0 }
    t.kernels

let run_serial ?until ?expect_quiescent t =
  let limit = match until with Some u -> u | None -> max_int in
  let continue_ = ref true in
  while !continue_ do
    match next_bound t ~limit with
    | None -> continue_ := false
    | Some bound ->
        for i = 0 to Array.length t.kernels - 1 do
          run_round t i ~bound
        done
  done;
  finish ?until ?expect_quiescent t
