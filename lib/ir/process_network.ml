type mapping = Sw | Hw

type channel = {
  cname : string;
  src : string;
  dst : string;
  depth : int;
  latency : int;
}

type t = {
  name : string;
  procs : (Behavior.proc * mapping) list;
  channels : channel list;
}

(* Channels a behaviour sends on / receives from. *)
let rec stmt_chans s =
  match s with
  | Behavior.Send (ch, _) -> ([ ch ], [])
  | Behavior.Recv (_, ch) -> ([], [ ch ])
  | Behavior.If (_, t, e) -> stmts_chans (t @ e)
  | Behavior.While (_, b, _) | Behavior.For (_, _, _, b) -> stmts_chans b
  | _ -> ([], [])

and stmts_chans l =
  List.fold_left
    (fun (s, r) st ->
      let s', r' = stmt_chans st in
      (s @ s', r @ r'))
    ([], []) l

let make ?(name = "net") procs channels =
  let names = List.map (fun (p, _) -> p.Behavior.name) procs in
  if List.length (List.sort_uniq compare names) <> List.length names then
    invalid_arg "Process_network.make: duplicate process names";
  let cnames = List.map (fun c -> c.cname) channels in
  if List.length (List.sort_uniq compare cnames) <> List.length cnames then
    invalid_arg "Process_network.make: duplicate channel names";
  List.iter
    (fun c ->
      if not (List.mem c.src names) then
        invalid_arg
          (Printf.sprintf "Process_network.make: channel %s src %s unknown"
             c.cname c.src);
      if not (List.mem c.dst names) then
        invalid_arg
          (Printf.sprintf "Process_network.make: channel %s dst %s unknown"
             c.cname c.dst);
      if c.src = c.dst then
        invalid_arg
          (Printf.sprintf "Process_network.make: channel %s is a self-loop"
             c.cname);
      if c.depth < 0 then
        invalid_arg "Process_network.make: negative channel depth";
      if c.latency < 0 then
        invalid_arg "Process_network.make: negative channel latency")
    channels;
  (* every channel used in a behaviour must be declared consistently *)
  List.iter
    (fun (p, _) ->
      let sends, recvs = stmts_chans p.Behavior.body in
      List.iter
        (fun ch ->
          match List.find_opt (fun c -> c.cname = ch) channels with
          | Some c when c.src = p.Behavior.name -> ()
          | Some c ->
              invalid_arg
                (Printf.sprintf
                   "Process_network.make: %s sends on %s but channel src is \
                    %s"
                   p.Behavior.name ch c.src)
          | None ->
              invalid_arg
                (Printf.sprintf
                   "Process_network.make: %s sends on undeclared channel %s"
                   p.Behavior.name ch))
        sends;
      List.iter
        (fun ch ->
          match List.find_opt (fun c -> c.cname = ch) channels with
          | Some c when c.dst = p.Behavior.name -> ()
          | Some c ->
              invalid_arg
                (Printf.sprintf
                   "Process_network.make: %s receives on %s but channel dst \
                    is %s"
                   p.Behavior.name ch c.dst)
          | None ->
              invalid_arg
                (Printf.sprintf
                   "Process_network.make: %s receives on undeclared channel \
                    %s"
                   p.Behavior.name ch))
        recvs)
    procs;
  { name; procs; channels }

let find_proc t name =
  match List.find_opt (fun (p, _) -> p.Behavior.name = name) t.procs with
  | Some pm -> pm
  | None ->
      invalid_arg
        (Printf.sprintf
           "Process_network.find_proc: no process %S in network %s (has: %s)"
           name t.name
           (String.concat ", "
              (List.map (fun (p, _) -> p.Behavior.name) t.procs)))

let remap t updates =
  let procs =
    List.map
      (fun (p, m) ->
        match List.assoc_opt p.Behavior.name updates with
        | Some m' -> (p, m')
        | None -> (p, m))
      t.procs
  in
  { t with procs }

let hw_procs t =
  List.filter_map (fun (p, m) -> if m = Hw then Some p else None) t.procs
