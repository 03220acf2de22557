module K = Codesign_sim.Kernel
module S = Codesign_sim.Signal

type stats = { reads : int; writes : int; stalls : int; busy_cycles : int }

(* FIFO-fair mutual exclusion shared by both models. *)
module Arbiter = struct
  type t = {
    mutable busy : bool;
    waiters : (unit -> unit) Queue.t;
    mutable stall_count : int;
  }

  let create () = { busy = false; waiters = Queue.create (); stall_count = 0 }

  let acquire t =
    if t.busy then begin
      t.stall_count <- t.stall_count + 1;
      K.suspend ~register:(fun resume -> Queue.push resume t.waiters)
      (* ownership is handed over directly by [release] *)
    end
    else t.busy <- true

  let release t =
    if Queue.is_empty t.waiters then t.busy <- false
    else (Queue.pop t.waiters) ()

  let idle t = (not t.busy) && Queue.is_empty t.waiters

  type snap = { s_busy : bool; s_stall_count : int }

  let snapshot t = { s_busy = t.busy; s_stall_count = t.stall_count }

  let restore t s =
    t.busy <- s.s_busy;
    t.stall_count <- s.s_stall_count;
    Queue.clear t.waiters
end

module Tlm = struct
  type t = {
    kernel : K.t;
    map : Memory_map.t;
    arb : Arbiter.t;
    mutable reads : int;
    mutable writes : int;
    mutable busy_cycles : int;
  }

  (* cycles per read and per write transfer *)
  let read_latency = 2
  let write_latency = 2

  let create kernel map =
    {
      kernel;
      map;
      arb = Arbiter.create ();
      reads = 0;
      writes = 0;
      busy_cycles = 0;
    }

  let read t addr =
    Arbiter.acquire t.arb;
    K.wait read_latency;
    let v = Memory_map.read t.map addr in
    t.reads <- t.reads + 1;
    t.busy_cycles <- t.busy_cycles + read_latency;
    Arbiter.release t.arb;
    v

  let write t addr v =
    Arbiter.acquire t.arb;
    K.wait write_latency;
    Memory_map.write t.map addr v;
    t.writes <- t.writes + 1;
    t.busy_cycles <- t.busy_cycles + write_latency;
    Arbiter.release t.arb

  let stats t =
    {
      reads = t.reads;
      writes = t.writes;
      stalls = t.arb.Arbiter.stall_count;
      busy_cycles = t.busy_cycles;
    }

  type snap = {
    s_arb : Arbiter.snap;
    s_reads : int;
    s_writes : int;
    s_busy_cycles : int;
  }

  let snapshot t =
    {
      s_arb = Arbiter.snapshot t.arb;
      s_reads = t.reads;
      s_writes = t.writes;
      s_busy_cycles = t.busy_cycles;
    }

  let restore t s =
    Arbiter.restore t.arb s.s_arb;
    t.reads <- s.s_reads;
    t.writes <- s.s_writes;
    t.busy_cycles <- s.s_busy_cycles
end

module Pin = struct
  let setup_cycles = 1

  type t = {
    kernel : K.t;
    map : Memory_map.t;
    arb : Arbiter.t;
    addr : int S.t;
    wdata_rdata : int S.t;  (** shared data bus *)
    req : int S.t;
    ack : int S.t;
    we : int S.t;
    mutable reads : int;
    mutable writes : int;
    mutable busy_cycles : int;
  }

  (* The slave side: an autonomous process decoding every request.  One
     request at a time is guaranteed by the arbiter.  A named function
     so [restore] can spawn a fresh slave for a forked timeline. *)
  let spawn_slave t =
    K.spawn ~name:"bus.slave" t.kernel (fun () ->
        let rec serve () =
          ignore (S.await t.req (fun v -> v = 1));
          let a = S.read t.addr in
          let ws = Memory_map.wait_states t.map a in
          K.wait (setup_cycles + ws);
          if S.read t.we = 1 then
            Memory_map.write t.map a (S.read t.wdata_rdata)
          else S.write t.wdata_rdata (Memory_map.read t.map a);
          K.wait 1;
          S.pulse t.ack 1;
          (* wait for the master to drop the request, then complete *)
          ignore (S.await t.req (fun v -> v = 0));
          S.write t.ack 0;
          serve ()
        in
        serve ())

  let create kernel map =
    let t =
      {
        kernel;
        map;
        arb = Arbiter.create ();
        addr = S.create ~name:"bus.addr" 0;
        wdata_rdata = S.create ~name:"bus.data" 0;
        req = S.create ~name:"bus.req" 0;
        ack = S.create ~name:"bus.ack" 0;
        we = S.create ~name:"bus.we" 0;
        reads = 0;
        writes = 0;
        busy_cycles = 0;
      }
    in
    spawn_slave t;
    t

  let transfer t addr ~we ~value =
    Arbiter.acquire t.arb;
    let start = K.now t.kernel in
    S.write t.addr addr;
    S.write t.we (if we then 1 else 0);
    if we then S.write t.wdata_rdata value;
    S.pulse t.req 1;
    ignore (S.await t.ack (fun v -> v = 1));
    let result = if we then 0 else S.read t.wdata_rdata in
    S.write t.req 0;
    ignore (S.await t.ack (fun v -> v = 0));
    (* bus turnaround: the handshake release costs a cycle that the
       transaction-level model's fixed latency does not account for *)
    K.wait 1;
    t.busy_cycles <- t.busy_cycles + (K.now t.kernel - start);
    Arbiter.release t.arb;
    result

  let read t addr =
    let v = transfer t addr ~we:false ~value:0 in
    t.reads <- t.reads + 1;
    v

  let write t addr v =
    ignore (transfer t addr ~we:true ~value:v);
    t.writes <- t.writes + 1

  let stats t =
    {
      reads = t.reads;
      writes = t.writes;
      stalls = t.arb.Arbiter.stall_count;
      busy_cycles = t.busy_cycles;
    }

  type snap = {
    s_arb : Arbiter.snap;
    s_addr : int S.snap;
    s_data : int S.snap;
    s_req : int S.snap;
    s_ack : int S.snap;
    s_we : int S.snap;
    s_reads : int;
    s_writes : int;
    s_busy_cycles : int;
  }

  let snapshot t =
    if not (Arbiter.idle t.arb) then
      invalid_arg "Bus.Pin.snapshot: bus is mid-transaction (arbiter busy)";
    {
      s_arb = Arbiter.snapshot t.arb;
      s_addr = S.snapshot t.addr;
      s_data = S.snapshot t.wdata_rdata;
      s_req = S.snapshot t.req;
      s_ack = S.snapshot t.ack;
      s_we = S.snapshot t.we;
      s_reads = t.reads;
      s_writes = t.writes;
      s_busy_cycles = t.busy_cycles;
    }

  let restore t s =
    Arbiter.restore t.arb s.s_arb;
    S.restore t.addr s.s_addr;
    S.restore t.wdata_rdata s.s_data;
    S.restore t.req s.s_req;
    S.restore t.ack s.s_ack;
    S.restore t.we s.s_we;
    t.reads <- s.s_reads;
    t.writes <- s.s_writes;
    t.busy_cycles <- s.s_busy_cycles;
    (* restoring the wires dropped every waiter, abandoning the old
       slave process wherever it was blocked; serve the forked timeline
       with a fresh one *)
    spawn_slave t

  let addr_wire t = t.addr
  let req_wire t = t.req
  let ack_wire t = t.ack
end
