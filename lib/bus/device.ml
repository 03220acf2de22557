module K = Codesign_sim.Kernel

let maybe_raise = function
  | Some (ic, line) -> Interrupt.raise_line ic line
  | None -> ()

module Gpio = struct
  type t = {
    mutable out_reg : int;
    mutable in_reg : int;
    mutable writes : int;
  }

  let create () = { out_reg = 0; in_reg = 0; writes = 0 }

  let region ~name ~base t =
    let dev_read = function 0 -> t.out_reg | 1 -> t.in_reg | _ -> 0 in
    let dev_write off v =
      if off = 0 then begin
        t.out_reg <- v;
        t.writes <- t.writes + 1
      end
    in
    Memory_map.device ~name ~base ~size:2
      (Memory_map.simple_handlers dev_read dev_write)

  let set_input t v = t.in_reg <- v
  let output t = t.out_reg
  let write_count t = t.writes
end

module Stream_src = struct
  type t = {
    kernel : K.t;
    irq : (Interrupt.t * int) option;
    fifo : int Queue.t;
    depth : int;
    mutable produced : int;
    mutable overruns : int;
  }

  let create ?irq ?(depth = 4) ~period ~count ~gen kernel () =
    if period <= 0 then invalid_arg "Stream_src: period must be positive";
    let t =
      { kernel; irq; fifo = Queue.create (); depth; produced = 0;
        overruns = 0 }
    in
    K.spawn ~name:"stream_src" kernel (fun () ->
        for i = 0 to count - 1 do
          K.wait period;
          if Queue.length t.fifo >= t.depth then
            t.overruns <- t.overruns + 1
          else begin
            let was_empty = Queue.is_empty t.fifo in
            Queue.push (gen i) t.fifo;
            if was_empty then maybe_raise t.irq
          end;
          t.produced <- t.produced + 1
        done);
    t

  let region ~name ~base t =
    let dev_read = function
      | 0 -> Queue.length t.fifo
      | 1 -> ( match Queue.take_opt t.fifo with Some v -> v | None -> 0)
      | 2 -> t.overruns
      | _ -> 0
    in
    Memory_map.device ~name ~base ~size:3
      (Memory_map.simple_handlers dev_read (fun _ _ -> ()))

  let produced t = t.produced
  let overruns t = t.overruns
  let available t = Queue.length t.fifo
end

module Stream_sink = struct
  type t = {
    kernel : K.t;
    irq : (Interrupt.t * int) option;
    period : int;
    mutable ready_at : int;
    mutable words : int list;  (** reversed *)
  }

  let create ?irq ~period kernel () =
    if period <= 0 then invalid_arg "Stream_sink: period must be positive";
    { kernel; irq; period; ready_at = 0; words = [] }

  let ready t = K.now t.kernel >= t.ready_at

  let region ~name ~base t =
    let dev_read = function 0 -> if ready t then 1 else 0 | _ -> 0 in
    let dev_write off v =
      if off = 1 then begin
        t.words <- v :: t.words;
        t.ready_at <- max (K.now t.kernel) t.ready_at + t.period;
        (match t.irq with
        | Some (ic, line) ->
            let gen_ready_at = t.ready_at in
            K.at t.kernel ~time:t.ready_at (fun () ->
                if t.ready_at = gen_ready_at then
                  Interrupt.raise_line ic line)
        | None -> ())
      end
    in
    let wait_states off =
      if off = 1 then max 0 (t.ready_at - K.now t.kernel) else 0
    in
    Memory_map.device ~name ~base ~size:2
      (Memory_map.simple_handlers ~wait_states dev_read dev_write)

  let accepted t = List.rev t.words
end
