module B = Codesign_ir.Behavior
module Pn = Codesign_ir.Process_network
module K = Codesign_sim.Kernel
module Ch = Codesign_sim.Channel
module Partition = Codesign_sim.Partition
module Pdes = Codesign_par.Pdes
module M = Codesign_bus.Memory_map
module Bus = Codesign_bus.Bus
module T = Codesign_bus.Transport
module Device = Codesign_bus.Device
module Cpu = Codesign_isa.Cpu
module Codegen = Codesign_isa.Codegen
module Asm = Codesign_isa.Asm

type level = T.level = Pin | Transaction | Driver | Message

let all_levels = T.all_levels
let level_name = T.level_name

type assignment = { src : level; cpu : level; sink : level }

let pure level = { src = level; cpu = level; sink = level }
let is_pure a = a.cpu = a.src && a.cpu = a.sink

let assignment_name a =
  Printf.sprintf "%s:%s:%s" (T.short_name a.src) (T.short_name a.cpu)
    (T.short_name a.sink)

let parse_assignment s =
  match String.split_on_char ':' s with
  | [ one ] -> Result.map pure (T.level_of_string one)
  | [ s1; s2; s3 ] ->
      Result.bind (T.level_of_string s1) (fun src ->
          Result.bind (T.level_of_string s2) (fun cpu ->
              Result.map
                (fun sink -> { src; cpu; sink })
                (T.level_of_string s3)))
  | _ ->
      Error
        (Printf.sprintf
           "bad level assignment %S (expected LEVEL or SRC:CPU:SINK)" s)

let ladder_position a = T.rank a.src + T.rank a.cpu + T.rank a.sink

type outcome = Completed | Not_halted of string | Exhausted of string

type metrics = {
  level : level;
  assignment : assignment;
  outcome : outcome;
  checksum : int;
  sim_cycles : int;
  events : int;
  activations : int;
  bus_ops : int;
}

(* FIFO-fair mutex used to serialise processes on one CPU or one
   hardware engine. *)
module Mutex = struct
  type t = { mutable held : bool; waiters : (unit -> unit) Queue.t }

  let create () = { held = false; waiters = Queue.create () }

  let acquire t =
    if t.held then
      K.suspend ~register:(fun resume -> Queue.push resume t.waiters)
    else t.held <- true

  let release t =
    if Queue.is_empty t.waiters then t.held <- false
    else (Queue.pop t.waiters) ()
end

(* ------------------------------------------------------------------ *)
(* The fixed echo application of the abstraction-ladder experiment     *)
(* ------------------------------------------------------------------ *)

let echo_app ~items ~work =
  {
    B.name = "echo";
    params = [];
    arrays = [];
    results = [ "sum" ];
    body =
      [
        B.Assign ("sum", B.Int 0);
        B.For
          ( "p",
            B.Int 0,
            B.Int items,
            [
              B.PortIn ("x", 0);
              B.Assign ("acc", B.Var "x");
              B.For
                ( "w",
                  B.Int 0,
                  B.Int work,
                  [
                    B.Assign
                      ( "acc",
                        B.Bin
                          ( B.Shr,
                            B.Bin
                              ( B.Add,
                                B.Bin (B.Mul, B.Var "acc", B.Int 3),
                                B.Var "x" ),
                            B.Int 1 ) );
                  ] );
              B.PortOut (1, B.Var "acc");
              B.Assign ("sum", B.Bin (B.Add, B.Var "sum", B.Var "acc"));
            ] );
      ];
  }

let src_base = 0x10000
let sink_base = 0x10010

(* statement cost used for approximate software timing at Message level *)
let message_sw_stmt_cycles = 8

(* One generic pipeline over the whole Fig. 3 grid.  Each component of
   the assignment picks the transport modelling its interface (src and
   sink) or the software model itself (cpu): everything past
   construction is level-blind — it talks to a {!Transport.t}.

   The four pure assignments are required to be observationally
   identical (same metrics, byte for byte) to the dedicated per-level
   runners this function replaced, so construction and spawn order below
   deliberately mirror them: source-side component, sink-side component,
   message endpoint processes, memory map, transports (a shared one when
   both interfaces sit on the same bus rung), software last. *)
let run_echo_assignment ~levels ?(items = 16) ?(work = 8) ?(src_period = 200)
    ?(sink_period = 120) ?(quantum = 1) ?(partitions = 1) ?(link_latency = 0)
    () =
  if quantum < 1 then
    invalid_arg "Cosim.run_echo_assignment: quantum must be >= 1";
  if partitions < 1 || partitions > 3 then
    invalid_arg
      "Cosim.run_echo_assignment: partitions must be 1 (serial), 2 \
       (src+cpu | sink) or 3 (src | cpu | sink)";
  if link_latency < 0 then
    invalid_arg "Cosim.run_echo_assignment: negative link_latency";
  let { src = src_lvl; cpu = cpu_lvl; sink = sink_lvl } = levels in
  if partitions >= 2 && sink_lvl <> Message then
    invalid_arg
      "Cosim.run_echo_assignment: the sink can only be cut onto its own \
       partition at the message level";
  if partitions = 3 && src_lvl <> Message then
    invalid_arg
      "Cosim.run_echo_assignment: the source can only be cut onto its own \
       partition at the message level";
  (* Partition layout: the bus-coupled components (map, buses, CPU) are
     inseparable; message-level interfaces are the only cut points.
     partitions = 1 keeps the historic single wheel. *)
  let plan = Partition.create ~partitions in
  let p_src, p_cpu, p_sink =
    match partitions with
    | 1 -> (0, 0, 0)
    | 2 -> (0, 0, 1)
    | _ -> (0, 1, 2)
  in
  let k = Partition.kernel plan p_cpu in
  let k_src = Partition.kernel plan p_src in
  let k_sink = Partition.kernel plan p_sink in
  let gen i = ((i * 7) mod 23) - 5 in
  (* source side: a bus-mapped stream device, or a kernel channel fed by
     a producer process when the interface is at Message level.  The
     device FIFO holds the full stream so a slow consumer loses
     nothing.  Channels live on their receiver's wheel: the input
     channel is received by the CPU, the output channel by the sink. *)
  let src_dev, c_in =
    match src_lvl with
    | Message ->
        ( None,
          Some
            (Ch.create ~depth:4 ~latency:link_latency ~name:"in" k ()
              : int Ch.t) )
    | _ ->
        ( Some
            (Device.Stream_src.create ~depth:items ~period:src_period
               ~count:items ~gen k_src ()),
          None )
  in
  let sink_dev, c_out =
    match sink_lvl with
    | Message ->
        ( None,
          Some
            (Ch.create ~depth:4 ~latency:link_latency ~name:"out" k_sink ()
              : int Ch.t) )
    | _ ->
        (Some (Device.Stream_sink.create ~period:sink_period k_sink ()), None)
  in
  let msg_checksum = ref 0 in
  let sink_done_at = ref 0 in
  (match c_in with
  | Some c ->
      K.spawn ~name:"source" k_src (fun () ->
          for i = 0 to items - 1 do
            K.wait src_period;
            Ch.send c (gen i)
          done)
  | None -> ());
  (match c_out with
  | Some c ->
      K.spawn ~name:"sink" k_sink (fun () ->
          for _ = 1 to items do
            let v = Ch.recv c in
            msg_checksum := !msg_checksum + v;
            K.wait sink_period
          done;
          sink_done_at := K.now k_sink)
  | None -> ());
  let regions =
    (match src_dev with
    | Some d -> [ Device.Stream_src.region ~name:"src" ~base:src_base d ]
    | None -> [])
    @
    match sink_dev with
    | Some d -> [ Device.Stream_sink.region ~name:"sink" ~base:sink_base d ]
    | None -> []
  in
  let map = if regions = [] then None else Some (M.create regions) in
  (* bus-rung transports are memoized per level: when both interfaces
     sit on the same rung they share one bus, exactly as the pure-level
     system had *)
  let made : (level * T.t) list ref = ref [] in
  let bus_transport lvl =
    match List.assoc_opt lvl !made with
    | Some t -> t
    | None ->
        let m = Option.get map in
        let t =
          match lvl with
          | Pin -> T.pin k m
          | Transaction -> T.tlm k m
          | Driver -> T.driver m
          | Message -> assert false
        in
        made := !made @ [ (lvl, t) ];
        t
  in
  let tr_src =
    match (src_lvl, c_in) with
    | Message, Some c -> T.message ~recv:[ (src_base, c) ] ()
    | _ -> bus_transport src_lvl
  in
  let tr_sink =
    match (sink_lvl, c_out) with
    | Message, Some c -> T.message ~send:[ (sink_base, c) ] ()
    | _ -> bus_transport sink_lvl
  in
  let transports =
    if tr_sink == tr_src then [ tr_src ] else [ tr_src; tr_sink ]
  in
  (* A cut interface must guarantee a minimum latency between a send and
     its earliest remote effect: that is exactly the transport's
     declared lookahead, so the partition boundary is checked there
     rather than against any backend-specific knob. *)
  (if partitions > 1 then
     let check what (tr : T.t) =
       if tr.T.lookahead < 1 then
         invalid_arg
           (Printf.sprintf
              "Cosim.run_echo_assignment: the %s interface transport has \
               zero lookahead and cannot cross a partition boundary (give \
               its channels latency >= 1, e.g. link_latency)"
              what)
     in
     check "sink" tr_sink;
     if partitions = 3 then check "src" tr_src);
  if p_cpu <> p_src then
    Partition.route_channel plan ~src:p_src ~dst:p_cpu (Option.get c_in);
  if p_sink <> p_cpu then
    Partition.route_channel plan ~src:p_cpu ~dst:p_sink (Option.get c_out);
  let bus_ops () =
    List.fold_left
      (fun a t ->
        let s = t.T.stats () in
        a + s.Bus.reads + s.Bus.writes)
      0 transports
  in
  (* software more abstract than an interface sees the detailed medium
     through the re-labelling transactor: its blocking accesses expand
     into the medium's own protocol underneath *)
  let present tr =
    if T.rank cpu_lvl > T.rank tr.T.level then T.view tr ~as_:cpu_lvl
    else tr
  in
  let io_src = present tr_src and io_sink = present tr_sink in
  (* Temporal decoupling (quantum > 1): the software component accrues
     local cycles and only synchronises with the kernel every [quantum]
     cycles — except that any port access first flushes the accrued
     lead, so I/O always happens at the correct simulated time relative
     to the component's own clock (the loosely-timed "sync before
     communication" rule).  At quantum = 1 the flush hook stays a no-op
     and the historic per-statement paths below run unchanged. *)
  let flush_sw = ref (fun () -> ()) in
  let port_in () =
    !flush_sw ();
    io_src.T.wait_ready src_base;
    io_src.T.read (src_base + 1)
  in
  let port_out v =
    !flush_sw ();
    io_sink.T.wait_ready sink_base;
    io_sink.T.write (sink_base + 1) v
  in
  let cpu_done_at = ref 0 in
  let sw_done = ref false in
  let iss =
    match cpu_lvl with
    | Message ->
        (* no ISS: the behaviour interprets with statement-approximate
           timing, as communicating-process software *)
        let pending = ref 0 in
        let flush () =
          if !pending > 0 then begin
            let p = !pending in
            pending := 0;
            K.wait p
          end
        in
        if quantum > 1 then flush_sw := flush;
        K.spawn ~name:"sw" k (fun () ->
            let io =
              {
                B.null_io with
                B.port_in = (fun _ -> port_in ());
                port_out = (fun _ v -> port_out v);
              }
            in
            let tick =
              if quantum = 1 then fun () -> K.wait message_sw_stmt_cycles
              else fun () ->
                pending := !pending + message_sw_stmt_cycles;
                if !pending >= quantum then flush ()
            in
            ignore (B.run ~io ~tick (echo_app ~items ~work) []);
            flush ();
            sw_done := true;
            cpu_done_at := K.now k);
        None
    | _ ->
        let env =
          {
            Cpu.default_env with
            Cpu.port_in = (fun _port -> port_in ());
            port_out = (fun _port v -> port_out v);
          }
        in
        let items_code, lay = Codegen.compile (echo_app ~items ~work) in
        let img = Asm.assemble items_code in
        let cpu = Cpu.create ~env img.Asm.code in
        (* [synced] = cycles already turned into kernel waits; the
           flush settles the difference against the CPU's own counter,
           which is exact at every hook call site because the block
           tier updates [Cpu.cycles] before dispatching any
           hook-calling instruction through [Cpu.step] *)
        let synced = ref 0 in
        let flush () =
          let d = Cpu.cycles cpu - !synced in
          if d > 0 then begin
            synced := !synced + d;
            K.wait d
          end
        in
        if quantum > 1 then flush_sw := flush;
        K.spawn ~name:"cpu" k (fun () ->
            if quantum = 1 then
              while Cpu.status cpu = Cpu.Running do
                let cy = Cpu.step cpu in
                if cy > 0 then K.wait cy
              done
            else
              while Cpu.status cpu = Cpu.Running do
                (* run up to [quantum] cycles ahead on the block tier,
                   then settle; port I/O inside the burst flushes via
                   [flush_sw] before touching the transport *)
                let target = !synced + quantum in
                while
                  Cpu.status cpu = Cpu.Running && Cpu.cycles cpu < target
                do
                  ignore
                    (Cpu.run_blocks cpu ~fuel:(target - Cpu.cycles cpu))
                done;
                flush ()
              done;
            cpu_done_at := K.now k);
        Some (cpu, lay)
  in
  let pure_message =
    src_lvl = Message && cpu_lvl = Message && sink_lvl = Message
  in
  (* A bus-coupled run stops at a 50M-cycle bound, where a CPU still
     running is reported as [Not_halted]; a pure message pipeline
     drains, and one left blocked raises [Deadlock]. *)
  let st =
    Pdes.run
      ~bound:(if pure_message then K.Drain else K.Until 50_000_000)
      plan
  in
  let outcome =
    match iss with
    | Some (cpu, _) -> (
        match Cpu.status cpu with
        | Cpu.Halted -> Completed
        | Cpu.Running ->
            Not_halted "timeout: CPU still running at simulation bound"
        | Cpu.Trapped m -> Not_halted ("trapped: " ^ m))
    | None ->
        if pure_message || !sw_done then Completed
        else Not_halted "timeout: software still running at simulation bound"
  in
  let checksum =
    match sink_dev with
    | Some d -> List.fold_left ( + ) 0 (Device.Stream_sink.accepted d)
    | None -> !msg_checksum
  in
  (* cross-check against the software's own accumulator (only meaningful
     once the program ran to completion) *)
  (match iss with
  | Some (cpu, lay) when outcome = Completed ->
      assert (checksum = Codegen.result lay cpu "sum")
  | _ -> ());
  let sim_cycles =
    match (iss, c_out) with
    | Some _, _ -> if outcome = Completed then !cpu_done_at else st.K.end_time
    | None, Some _ -> !sink_done_at
    | None, None -> if !sw_done then !cpu_done_at else st.K.end_time
  in
  {
    level = cpu_lvl;
    assignment = levels;
    outcome;
    checksum;
    sim_cycles;
    events = st.K.events;
    activations = st.K.activations;
    bus_ops = bus_ops ();
  }

(* ------------------------------------------------------------------ *)
(* Process-network execution                                           *)
(* ------------------------------------------------------------------ *)

type network_outcome =
  | Net_completed
  | Net_trapped of string * string  (* (process, trap message) *)

type network_result = {
  end_time : int;
  net_events : int;
  net_activations : int;
  net_outcome : network_outcome;
  port_writes : (string * int * int) list;
  hw_area : int;
  sw_results : (string * (string * int) list) list;
  chan_stats : (string * Ch.stats) list;
}

(* trip-weighted dynamic statement estimate (matches the ASIP walk) *)
let rec dyn_stmts trip (s : B.stmt) =
  match s with
  | B.If (_, t, f) ->
      trip + dyn_list trip t + dyn_list trip f
  | B.While (_, body, kk) -> trip + dyn_list (trip * max kk 1) body
  | B.For (_, lo, hi, body) ->
      let kk =
        match (lo, hi) with
        | B.Int l, B.Int h -> max (h - l) 1
        | _ -> 8
      in
      trip + dyn_list (trip * kk) body
  | _ -> trip

and dyn_list trip l = List.fold_left (fun a s -> a + dyn_stmts trip s) 0 l

let stmt_cycles_of (est : Codesign_hls.Hls.behavior_estimate) proc =
  let d = max 1 (dyn_list 1 proc.B.body) in
  max 1 (est.Codesign_hls.Hls.cycles / d)

let hw_stmt_cycles proc = stmt_cycles_of (Codesign_hls.Hls.estimate proc) proc

let chan_port_base = 100

let run_network ?hw_engines ?(cross_cost = 0) ?partition (net : Pn.t) =
  let proc_names = List.map (fun (p, _) -> p.B.name) net.Pn.procs in
  let proc_name = Array.of_list proc_names in
  let proc_idx name =
    let rec go i = if proc_name.(i) = name then i else go (i + 1) in
    go 0
  in
  (match partition with
  | None -> ()
  | Some assign ->
      List.iter
        (fun (name, p) ->
          if not (List.mem name proc_names) then
            invalid_arg
              (Printf.sprintf
                 "Cosim.run_network: partition map names unknown process %S"
                 name);
          if p < 0 then
            invalid_arg
              (Printf.sprintf
                 "Cosim.run_network: process %S assigned negative partition %d"
                 name p))
        assign);
  let part_of =
    match partition with
    | None -> fun _ -> 0
    | Some assign -> (
        fun name ->
          match List.assoc_opt name assign with Some p -> p | None -> 0)
  in
  let nparts =
    1
    + List.fold_left
        (fun acc (p, _) -> max acc (part_of p.B.name))
        0 net.Pn.procs
  in
  (* Software processes share one CPU token, and hardware processes with
     an explicitly shared engine share that engine's token; token
     holders must therefore be colocated — partitions only communicate
     through latency channels. *)
  (if nparts > 1 then
     let sw_parts =
       List.filter_map
         (fun ((p : B.proc), m) ->
           if m = Pn.Sw then Some (part_of p.B.name) else None)
         net.Pn.procs
       |> List.sort_uniq compare
     in
     match sw_parts with
     | _ :: _ :: _ ->
         invalid_arg
           "Cosim.run_network: software processes share one CPU and must \
            all map to the same partition"
     | _ -> (
         match hw_engines with
         | None -> ()
         | Some l ->
             let seen : (int, string * int) Hashtbl.t = Hashtbl.create 4 in
             List.iter
               (fun ((p : B.proc), m) ->
                 if m = Pn.Hw then
                   match List.assoc_opt p.B.name l with
                   | None -> ()
                   | Some e -> (
                       let part = part_of p.B.name in
                       match Hashtbl.find_opt seen e with
                       | None -> Hashtbl.replace seen e (p.B.name, part)
                       | Some (other, part') when part' <> part ->
                           invalid_arg
                             (Printf.sprintf
                                "Cosim.run_network: processes %S and %S \
                                 share hardware engine %d but map to \
                                 partitions %d and %d"
                                other p.B.name e part' part)
                       | Some _ -> ()))
               net.Pn.procs));
  let plan = Partition.create ~partitions:nparts in
  let kern i = Partition.kernel plan i in
  (* Channels live on their receiver's wheel (delivery executes there);
     a channel whose sender is elsewhere is routed through the plan's
     mailboxes, which demands latency >= 1 (the lookahead guard). *)
  let channels =
    List.map
      (fun (c : Pn.channel) ->
        let dst_part = part_of c.Pn.dst in
        let ch =
          Ch.create ~depth:c.Pn.depth ~latency:c.Pn.latency ~name:c.Pn.cname
            (kern dst_part) ()
        in
        let src_part = part_of c.Pn.src in
        if src_part <> dst_part then
          Partition.route_channel plan ~src:src_part ~dst:dst_part ch;
        (c.Pn.cname, ch))
      net.Pn.channels
  in
  let chan_ports =
    List.mapi (fun i (c : Pn.channel) -> (c.Pn.cname, chan_port_base + i))
      net.Pn.channels
  in
  (* Observables are recorded per partition (each array cell is touched
     only by the domain running that partition) and tagged with
     (time, declaration index, per-process sequence); merging is a
     canonical sort on the tags, so the reported order is a property of
     the simulation, not of which wheel or domain hosted the writer. *)
  let pw : (int * int * int * int * int) list ref array =
    Array.init nparts (fun _ -> ref [])
  in
  (* engine id of every process: software = -1, hardware = its engine *)
  let engine_id_of_proc name =
    match List.find_opt (fun (p, _) -> p.B.name = name) net.Pn.procs with
    | Some (_, Pn.Sw) -> -1
    | Some (_, Pn.Hw) -> (
        match hw_engines with
        | Some l -> ( match List.assoc_opt name l with Some e -> e | None -> Hashtbl.hash name )
        | None -> Hashtbl.hash name)
    | None -> -1
  in
  (* Channel names and ports are resolved once per network: name ->
     (channel, send cost), first declaration first as with [List.assoc],
     and one slot per channel port.  A name or port that matches no
     channel raises [Not_found] when a process uses it. *)
  let by_name = Hashtbl.create 16 in
  List.iter2
    (fun (c : Pn.channel) (name, ch) ->
      let crossing = engine_id_of_proc c.Pn.src <> engine_id_of_proc c.Pn.dst in
      if not (Hashtbl.mem by_name name) then
        Hashtbl.add by_name name (ch, if crossing then cross_cost else 0))
    net.Pn.channels channels;
  let chan_named name = Hashtbl.find by_name name in
  let by_port =
    Array.of_list (List.map (fun (name, _) -> chan_named name) chan_ports)
  in
  let chan_at_port p =
    let i = p - chan_port_base in
    if i < 0 || i >= Array.length by_port then raise Not_found
    else by_port.(i)
  in
  let cpu_token = Mutex.create () in
  let engine_tokens : (int, Mutex.t) Hashtbl.t = Hashtbl.create 4 in
  let engine_of =
    match hw_engines with
    | Some l -> fun name -> List.assoc_opt name l
    | None -> fun _ -> None
  in
  let next_auto_engine = ref 1000 in
  let swr : (int * int * (string * int) list) list ref array =
    Array.init nparts (fun _ -> ref [])
  in
  let trp : (int * int * string) list ref array =
    Array.init nparts (fun _ -> ref [])
  in
  let end_times = Array.init nparts (fun _ -> ref 0) in
  let hw_area = ref 0 in
  List.iter
    (fun ((proc : B.proc), mapping) ->
      let my_part = part_of proc.B.name in
      let my_idx = proc_idx proc.B.name in
      let my_k = kern my_part in
      let my_pw = pw.(my_part) and my_end = end_times.(my_part) in
      let my_seq = ref 0 in
      let record_port p v =
        let s = !my_seq in
        my_seq := s + 1;
        my_pw := (K.now my_k, my_idx, s, p, v) :: !my_pw
      in
      match mapping with
      | Pn.Sw ->
          let items, lay = Codegen.compile ~chan_ports proc in
          let img = Asm.assemble items in
          let env =
            {
              Cpu.default_env with
              Cpu.port_in =
                (fun p ->
                  if p >= chan_port_base then begin
                    Mutex.release cpu_token;
                    let v = Ch.recv (fst (chan_at_port p)) in
                    Mutex.acquire cpu_token;
                    v
                  end
                  else 0);
              port_out =
                (fun p v ->
                  if p >= chan_port_base then begin
                    let ch, cost = chan_at_port p in
                    if cost > 0 then K.wait cost;
                    Mutex.release cpu_token;
                    Ch.send ch v;
                    Mutex.acquire cpu_token
                  end
                  else record_port p v);
            }
          in
          let c = Cpu.create ~env img.Asm.code in
          K.spawn ~name:proc.B.name my_k (fun () ->
              Mutex.acquire cpu_token;
              while Cpu.status c = Cpu.Running do
                let cy = Cpu.step c in
                if cy > 0 then K.wait cy
              done;
              Mutex.release cpu_token;
              (* never raise from inside a kernel process: a trap is
                 recorded as data and the process ends cleanly, so the
                 rest of the network keeps simulating and the caller
                 sees a structured outcome instead of an exception
                 unwinding through the scheduler *)
              (match Cpu.status c with
              | Cpu.Trapped m ->
                  trp.(my_part) := (K.now my_k, my_idx, m) :: !(trp.(my_part))
              | _ ->
                  swr.(my_part) :=
                    ( K.now my_k,
                      my_idx,
                      List.map
                        (fun v -> (v, Codegen.result lay c v))
                        proc.B.results )
                    :: !(swr.(my_part)));
              if K.now my_k > !my_end then my_end := K.now my_k)
      | Pn.Hw ->
          let est = Codesign_hls.Hls.estimate proc in
          hw_area := !hw_area + est.Codesign_hls.Hls.area;
          let stmt_cost = stmt_cycles_of est proc in
          let engine_id =
            match engine_of proc.B.name with
            | Some e -> e
            | None ->
                incr next_auto_engine;
                !next_auto_engine
          in
          let token =
            match Hashtbl.find_opt engine_tokens engine_id with
            | Some t -> t
            | None ->
                let t = Mutex.create () in
                Hashtbl.replace engine_tokens engine_id t;
                t
          in
          let io =
            {
              B.null_io with
              B.recv =
                (fun name ->
                  Mutex.release token;
                  let v = Ch.recv (fst (chan_named name)) in
                  Mutex.acquire token;
                  v);
              send =
                (fun name v ->
                  let ch, cost = chan_named name in
                  if cost > 0 then K.wait cost;
                  Mutex.release token;
                  Ch.send ch v;
                  Mutex.acquire token);
              port_out = (fun p v -> record_port p v);
            }
          in
          K.spawn ~name:proc.B.name my_k (fun () ->
              Mutex.acquire token;
              ignore
                (B.run ~io ~tick:(fun () -> K.wait stmt_cost) proc []);
              Mutex.release token;
              if K.now my_k > !my_end then my_end := K.now my_k))
    net.Pn.procs;
  let st = Pdes.run plan in
  let merge cells =
    Array.to_list cells
    |> List.concat_map (fun r -> List.rev !r)
    |> List.sort compare
  in
  let port_writes =
    List.map (fun (_, i, _, p, v) -> (proc_name.(i), p, v)) (merge pw)
  in
  let sw_results =
    List.map (fun (_, i, kvs) -> (proc_name.(i), kvs)) (merge swr)
  in
  let traps = List.map (fun (_, i, m) -> (proc_name.(i), m)) (merge trp) in
  {
    end_time = Array.fold_left (fun a r -> max a !r) 0 end_times;
    net_events = st.K.events;
    net_activations = st.K.activations;
    net_outcome =
      (match traps with
      | [] -> Net_completed
      | (p, m) :: _ -> Net_trapped (p, m));
    port_writes;
    hw_area = !hw_area;
    sw_results;
    chan_stats = List.map (fun (name, ch) -> (name, Ch.stats ch)) channels;
  }
