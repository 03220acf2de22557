module K = Codesign_sim.Kernel

type start_status = Started | Queued | Rejected of string

type job = { src : int; dst : int; len : int }

type t = {
  kernel : K.t;
  irq : (Interrupt.t * int) option;
  jobs : job Codesign_sim.Channel.t;
  mutable src_reg : int;
  mutable dst_reg : int;
  mutable len_reg : int;
  mutable status : int;
  mutable busy : bool;
  mutable transfers : int;
  mutable words : int;
}

let create ?irq kernel (bus : Transport.t) () =
  let t =
    {
      kernel;
      irq;
      jobs = Codesign_sim.Channel.create ~depth:4 ~name:"dma.jobs" kernel ();
      src_reg = 0;
      dst_reg = 0;
      len_reg = 0;
      status = 0;
      busy = false;
      transfers = 0;
      words = 0;
    }
  in
  K.spawn ~name:"dma" kernel (fun () ->
      let rec serve () =
        let job = Codesign_sim.Channel.recv t.jobs in
        for i = 0 to job.len - 1 do
          let v = bus.Transport.read (job.src + i) in
          bus.Transport.write (job.dst + i) v;
          t.words <- t.words + 1
        done;
        (* stay busy while queued descriptors remain: [busy] answers
           "will a new start be serviced immediately?" *)
        t.busy <- Codesign_sim.Channel.occupancy t.jobs > 0;
        t.status <- 1;
        t.transfers <- t.transfers + 1;
        (match t.irq with
        | Some (ic, line) -> Interrupt.raise_line ic line
        | None -> ());
        serve ()
      in
      serve ());
  t

let start t ~src ~dst ~len =
  if len < 0 then Rejected "negative length"
  else if not (Codesign_sim.Channel.try_send t.jobs { src; dst; len }) then
    Rejected "descriptor queue full"
  else begin
    let was_busy = t.busy in
    t.busy <- true;
    t.status <- 0;
    if was_busy then Queued else Started
  end

let region ~name ~base t =
  let dev_read = function
    | 0 -> t.src_reg
    | 1 -> t.dst_reg
    | 2 -> t.len_reg
    | 3 -> if t.busy then 1 else 0
    | 4 -> t.status
    | _ -> 0
  in
  let dev_write off v =
    match off with
    | 0 -> t.src_reg <- v
    | 1 -> t.dst_reg <- v
    | 2 -> t.len_reg <- v
    | 3 ->
        if v land 1 = 1 then
          (* register-level starts have no return channel; a rejected
             start is simply dropped, as real hardware would *)
          ignore (start t ~src:t.src_reg ~dst:t.dst_reg ~len:t.len_reg)
    | 4 -> t.status <- 0
    | _ -> ()
  in
  Memory_map.device ~name ~base ~size:5
    (Memory_map.simple_handlers dev_read dev_write)

let busy t = t.busy
let transfers_completed t = t.transfers
let words_moved t = t.words
