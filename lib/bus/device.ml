module K = Codesign_sim.Kernel

module Stream_src = struct
  type t = { fifo : int Queue.t; depth : int; mutable overruns : int }

  let create ?irq ?(depth = 4) ~period ~count ~gen kernel () =
    if period <= 0 then invalid_arg "Stream_src: period must be positive";
    let t = { fifo = Queue.create (); depth; overruns = 0 } in
    K.spawn ~name:"stream_src" kernel (fun () ->
        for i = 0 to count - 1 do
          K.wait period;
          if Queue.length t.fifo >= t.depth then
            t.overruns <- t.overruns + 1
          else begin
            let was_empty = Queue.is_empty t.fifo in
            Queue.push (gen i) t.fifo;
            match irq with
            | Some (ic, line) when was_empty -> Interrupt.raise_line ic line
            | _ -> ()
          end
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
end

module Stream_sink = struct
  type t = {
    kernel : K.t;
    period : int;
    mutable ready_at : int;
    mutable words : int list;  (** reversed *)
  }

  let create ~period kernel () =
    if period <= 0 then invalid_arg "Stream_sink: period must be positive";
    { kernel; period; ready_at = 0; words = [] }

  let ready t = K.now t.kernel >= t.ready_at

  let region ~name ~base t =
    let dev_read = function 0 -> if ready t then 1 else 0 | _ -> 0 in
    let dev_write off v =
      if off = 1 then begin
        t.words <- v :: t.words;
        t.ready_at <- max (K.now t.kernel) t.ready_at + t.period
      end
    in
    let wait_states off =
      if off = 1 then max 0 (t.ready_at - K.now t.kernel) else 0
    in
    Memory_map.device ~name ~base ~size:2
      (Memory_map.simple_handlers ~wait_states dev_read dev_write)

  let accepted t = List.rev t.words
end
