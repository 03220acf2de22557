module B = Codesign_ir.Behavior
module Pn = Codesign_ir.Process_network

type design = {
  threads : int;
  assignment : (string * int) list;
  latency : int;
  hw_area : int;
  crossing_channels : int;
  comm_aware : bool;
  checksum : int;
}

(* messages per channel the static assignment estimate assumes;
   execution charges the real per-message cost *)
let expected_msgs = 8

let synthesize ?(threads = 2) ?(comm_aware = true) ?(cross_cost = 24)
    (net : Pn.t) =
  if threads < 1 then invalid_arg "Coproc.synthesize: threads < 1";
  let hw = Pn.hw_procs net in
  if hw = [] then
    invalid_arg "Coproc.synthesize: network has no hardware processes";
  (* static load estimate per hardware process *)
  let load_of =
    List.map
      (fun (p : B.proc) ->
        (p.B.name, (Codesign_hls.Hls.estimate p).Codesign_hls.Hls.cycles))
      hw
  in
  (* LPT order *)
  let order =
    List.sort (fun (_, a) (_, b) -> compare b a) load_of
    |> List.map fst
  in
  let loads = Array.make threads 0 in
  let assignment = ref [] in
  let channels_between a b =
    List.length
      (List.filter
         (fun (c : Pn.channel) ->
           (c.Pn.src = a && c.Pn.dst = b) || (c.Pn.src = b && c.Pn.dst = a))
         net.Pn.channels)
  in
  List.iter
    (fun name ->
      let my_load = List.assoc name load_of in
      let score e =
        let base = loads.(e) + my_load in
        if not comm_aware then float_of_int base
        else begin
          (* communication penalty: channels to already-placed processes
             on other threads pay the crossing cost per expected message *)
          let penalty =
            List.fold_left
              (fun acc (peer, pe) ->
                if pe <> e then
                  acc + (channels_between name peer * expected_msgs * cross_cost)
                else acc)
              0 !assignment
          in
          float_of_int (base + penalty)
        end
      in
      let best = ref 0 in
      for e = 1 to threads - 1 do
        if score e < score !best then best := e
      done;
      loads.(!best) <- loads.(!best) + my_load;
      assignment := (name, !best) :: !assignment)
    order;
  let assignment = List.rev !assignment in
  let result =
    Cosim.run_network ~hw_engines:assignment ~cross_cost net
  in
  {
    threads;
    assignment;
    latency = result.Cosim.end_time;
    hw_area = result.Cosim.hw_area;
    crossing_channels = result.Cosim.crossing_channels;
    comm_aware;
    checksum =
      List.fold_left (fun acc (_, _, v) -> acc + v) 0
        result.Cosim.port_writes;
  }

let sweep_threads ~max_threads net =
  List.init max_threads (fun i -> synthesize ~threads:(i + 1) net)
