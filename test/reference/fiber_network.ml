module B = Codesign_ir.Behavior
module Pn = Codesign_ir.Process_network
module K = Codesign_sim.Kernel
module Ch = Codesign_sim.Channel
module Partition = Codesign_sim.Partition
module Cpu = Codesign_isa.Cpu
module Codegen = Codesign_isa.Codegen
module Asm = Codesign_isa.Asm
module Cosim = Codesign.Cosim

(* FIFO-fair engine token, as Cosim has it *)
module Token = struct
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

type engine = On_cpu | Label of int | Own of string

let chan_port_base = 100

let run_network ?hw_engines ?(cross_cost = 0) ?partition (net : Pn.t) =
  let proc_name =
    Array.of_list (List.map (fun (p, _) -> p.B.name) net.Pn.procs)
  in
  let proc_idx name =
    let rec go i = if proc_name.(i) = name then i else go (i + 1) in
    go 0
  in
  let part_of name =
    match partition with
    | None -> 0
    | Some assign -> Option.value (List.assoc_opt name assign) ~default:0
  in
  let nparts =
    1
    + List.fold_left (fun acc (p, _) -> max acc (part_of p.B.name)) 0
        net.Pn.procs
  in
  let plan = Partition.create ~partitions:nparts in
  let kern i = Partition.kernel plan i in
  let channels =
    List.map
      (fun (c : Pn.channel) ->
        let dst_part = part_of c.Pn.dst and src_part = part_of c.Pn.src in
        let ch =
          Ch.create ~depth:c.Pn.depth ~latency:c.Pn.latency ~name:c.Pn.cname
            (kern dst_part) ()
        in
        if src_part <> dst_part then
          Partition.route_channel plan ~src:src_part ~dst:dst_part ch;
        (c.Pn.cname, ch))
      net.Pn.channels
  in
  let chan_ports =
    List.mapi
      (fun i (c : Pn.channel) -> (c.Pn.cname, chan_port_base + i))
      net.Pn.channels
  in
  let engine_of name =
    let p, m = Pn.find_proc net name in
    match (m, Option.bind hw_engines (List.assoc_opt p.B.name)) with
    | Pn.Sw, _ -> On_cpu
    | Pn.Hw, Some e -> Label e
    | Pn.Hw, None -> Own name
  in
  let crosses (c : Pn.channel) = engine_of c.Pn.src <> engine_of c.Pn.dst in
  let chan_named name =
    let c =
      List.find (fun (c : Pn.channel) -> c.Pn.cname = name) net.Pn.channels
    in
    (List.assoc name channels, if crosses c then cross_cost else 0)
  in
  let chan_at_port p =
    match List.find_opt (fun (_, port) -> port = p) chan_ports with
    | Some (name, _) -> chan_named name
    | None -> raise Not_found
  in
  let tokens = Hashtbl.create 4 in
  let token_of name =
    let e = engine_of name in
    match Hashtbl.find_opt tokens e with
    | Some t -> t
    | None ->
        let t = Token.create () in
        Hashtbl.replace tokens e t;
        t
  in
  (* per-partition observables, merged canonically after the run *)
  let cells () = Array.init nparts (fun _ -> ref []) in
  let pw = cells () and swr = cells () and trp = cells () in
  let end_times = Array.init nparts (fun _ -> ref 0) in
  let hw_area = ref 0 in
  List.iter
    (fun ((proc : B.proc), mapping) ->
      let my_part = part_of proc.B.name and my_idx = proc_idx proc.B.name in
      let my_k = kern my_part in
      let my_pw = pw.(my_part) and my_end = end_times.(my_part) in
      let my_seq = ref 0 in
      let record_port p v =
        let s = !my_seq in
        my_seq := s + 1;
        my_pw := (K.now my_k, my_idx, s, p, v) :: !my_pw
      in
      let token = token_of proc.B.name in
      (* a channel operation releases the engine and takes it back *)
      let recv ch =
        Token.release token;
        let v = Ch.recv (fst (ch ())) in
        Token.acquire token;
        v
      and send ch v =
        let c, cost = ch () in
        if cost > 0 then K.wait cost;
        Token.release token;
        Ch.send c v;
        Token.acquire token
      in
      let finish () =
        Token.release token;
        if K.now my_k > !my_end then my_end := K.now my_k
      in
      match mapping with
      | Pn.Sw ->
          let items, lay = Codegen.compile ~chan_ports proc in
          let env =
            {
              Cpu.default_env with
              Cpu.port_in =
                (fun p ->
                  if p >= chan_port_base then
                    recv (fun () -> chan_at_port p)
                  else 0);
              port_out =
                (fun p v ->
                  if p >= chan_port_base then
                    send (fun () -> chan_at_port p) v
                  else record_port p v);
            }
          in
          let c = Cpu.create ~env (Asm.assemble items).Asm.code in
          K.spawn ~name:proc.B.name my_k (fun () ->
              Token.acquire token;
              while Cpu.status c = Cpu.Running do
                let cy = Cpu.step c in
                if cy > 0 then K.wait cy
              done;
              let now = K.now my_k in
              (match Cpu.status c with
              | Cpu.Trapped m ->
                  trp.(my_part) := (now, my_idx, m) :: !(trp.(my_part))
              | _ ->
                  let results =
                    List.map
                      (fun v -> (v, Codegen.result lay c v))
                      proc.B.results
                  in
                  swr.(my_part) := (now, my_idx, results) :: !(swr.(my_part)));
              finish ())
      | Pn.Hw ->
          let est = Codesign_hls.Hls.estimate proc in
          hw_area := !hw_area + est.Codesign_hls.Hls.area;
          let stmt_cost = Cosim.hw_stmt_cycles proc in
          let io =
            {
              B.null_io with
              B.recv = (fun name -> recv (fun () -> chan_named name));
              send = (fun name v -> send (fun () -> chan_named name) v);
              port_out = record_port;
            }
          in
          K.spawn ~name:proc.B.name my_k (fun () ->
              Token.acquire token;
              ignore (B.run ~io ~tick:(fun () -> K.wait stmt_cost) proc []);
              finish ()))
    net.Pn.procs;
  let st = Codesign_par.Pdes.run plan in
  let merge cells =
    Array.to_list cells
    |> List.concat_map (fun r -> List.rev !r)
    |> List.sort compare
  in
  let traps = List.map (fun (_, i, m) -> (proc_name.(i), m)) (merge trp) in
  {
    Cosim.end_time = Array.fold_left (fun a r -> max a !r) 0 end_times;
    net_events = st.K.events;
    net_activations = st.K.activations;
    net_outcome =
      (match traps with
      | [] -> Cosim.Net_completed
      | (p, m) :: _ -> Cosim.Net_trapped (p, m));
    port_writes =
      List.map (fun (_, i, _, p, v) -> (proc_name.(i), p, v)) (merge pw);
    hw_area = !hw_area;
    crossing_channels = List.length (List.filter crosses net.Pn.channels);
    sw_results = List.map (fun (_, i, kvs) -> (proc_name.(i), kvs)) (merge swr);
    chan_stats = List.map (fun (name, ch) -> (name, Ch.stats ch)) channels;
  }
