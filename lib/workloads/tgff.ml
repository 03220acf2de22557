module T = Codesign_ir.Task_graph
module Rng = Codesign_ir.Rng
module E = Codesign_rtl.Estimate

type archetype = Dsp | Control | Bitops | Memory

type spec = {
  seed : int;
  n_tasks : int;
  layers : int;
  edge_prob : float;
  skip_prob : float;
  sw_cycles_range : int * int;
  words_range : int * int;
  deadline_factor : float;
  modifiable_prob : float;
}

let default_spec =
  {
    seed = 1;
    n_tasks = 12;
    layers = 4;
    edge_prob = 0.5;
    skip_prob = 0.15;
    sw_cycles_range = (200, 2000);
    words_range = (1, 16);
    deadline_factor = 0.75;
    modifiable_prob = 0.2;
  }

let speedup_of = function
  | Dsp -> 12.0
  | Bitops -> 8.0
  | Memory -> 3.0
  | Control -> 1.6

let parallelism_of = function
  | Dsp -> 0.9
  | Bitops -> 0.8
  | Memory -> 0.4
  | Control -> 0.15

(* operation mix per 100 software cycles, by archetype *)
let mix_of arch sw_cycles =
  let scale n = max 1 (n * sw_cycles / 100) in
  match arch with
  | Dsp -> [ ("mul", scale 8); ("add", scale 14); ("ld", scale 6) ]
  | Control ->
      [ ("add", scale 6); ("lt", scale 8); ("eq", scale 5); ("sub", scale 4) ]
  | Bitops ->
      [ ("xor", scale 10); ("and", scale 8); ("shl", scale 8);
        ("or", scale 5) ]
  | Memory -> [ ("ld", scale 12); ("st", scale 10); ("add", scale 6) ]

let generate spec =
  if spec.n_tasks <= 0 then invalid_arg "Tgff.generate: n_tasks <= 0";
  if spec.layers <= 0 || spec.layers > spec.n_tasks then
    invalid_arg "Tgff.generate: bad layer count";
  let rng = Rng.create spec.seed in
  (* assign tasks to layers: ensure each layer non-empty *)
  let layer_of = Array.make spec.n_tasks 0 in
  for i = 0 to spec.n_tasks - 1 do
    layer_of.(i) <-
      (if i < spec.layers then i else Rng.int rng spec.layers)
  done;
  Array.sort compare layer_of;
  let archetypes = [ Dsp; Control; Bitops; Memory ] in
  let lo, hi = spec.sw_cycles_range in
  let tasks =
    List.init spec.n_tasks (fun i ->
        let arch = Rng.pick rng archetypes in
        let sw_cycles = Rng.int_in rng lo hi in
        let hw_cycles =
          max 1
            (int_of_float (float_of_int sw_cycles /. speedup_of arch))
        in
        let ops = mix_of arch sw_cycles in
        T.task ~id:i
          ~name:(Printf.sprintf "t%d" i)
          ~sw_cycles ~hw_cycles
          ~hw_area:(E.standalone_area ops)
          ~sw_bytes:(sw_cycles * 3 / 2)
          ~parallelism:(parallelism_of arch)
          ~modifiable:(Rng.float rng < spec.modifiable_prob)
          ~ops ())
  in
  let wlo, whi = spec.words_range in
  let edges = ref [] in
  for i = 0 to spec.n_tasks - 1 do
    for j = i + 1 to spec.n_tasks - 1 do
      let li = layer_of.(i) and lj = layer_of.(j) in
      if lj = li + 1 && Rng.float rng < spec.edge_prob then
        edges :=
          { T.src = i; dst = j; words = Rng.int_in rng wlo whi } :: !edges
      else if lj > li + 1 && Rng.float rng < spec.skip_prob then
        edges :=
          { T.src = i; dst = j; words = Rng.int_in rng wlo whi } :: !edges
    done
  done;
  (* connectivity: every task beyond the first layer needs a predecessor *)
  for j = 0 to spec.n_tasks - 1 do
    if layer_of.(j) > 0 then begin
      let has_pred = List.exists (fun (e : T.edge) -> e.dst = j) !edges in
      if not has_pred then begin
        (* connect from a random task in an earlier layer *)
        let candidates =
          List.filter
            (fun i -> layer_of.(i) < layer_of.(j))
            (List.init spec.n_tasks Fun.id)
        in
        let i = Rng.pick rng candidates in
        edges :=
          { T.src = i; dst = j; words = Rng.int_in rng wlo whi } :: !edges
      end
    end
  done;
  let g =
    T.make
      ~name:(Printf.sprintf "tgff%d" spec.seed)
      tasks (List.rev !edges)
  in
  if spec.deadline_factor > 0.0 then T.scale_deadline g spec.deadline_factor
  else g
