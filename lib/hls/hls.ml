module C = Codesign_ir.Cdfg
module B = Codesign_ir.Behavior

type report = {
  latency : int;
  fu_alloc : (string * int) list;
  fu_area : int;
  registers : int;
  reg_area : int;
  mux_area : int;
  ctrl_area : int;
  total_area : int;
}

type scheduler =
  | List_sched of (string * int) list
  | Force_directed of int
  | Asap_sched

let default_resources =
  [
    ("alu", 2); ("logic", 2); ("mul", 1); ("div", 1); ("shift", 1);
    ("cmp", 1); ("mem", 1);
  ]

let run_scheduler scheduler block =
  match scheduler with
  | Asap_sched -> Sched.asap block
  | List_sched resources -> Sched.list_schedule block ~resources
  | Force_directed latency ->
      let cp = (Sched.asap block).Sched.length in
      Sched.force_directed block ~latency:(max latency cp)

let report_of block sched binding =
  let n_states = max 1 sched.Sched.length + 1 (* commit state *) in
  let state_bits =
    let rec bits k = if 1 lsl k >= n_states then k else bits (k + 1) in
    bits 1
  in
  let ctrl_area = (6 * state_bits) + (4 * n_states) in
  let fu_area = Bind.fu_area binding in
  let reg_area = Bind.reg_area binding in
  let mux_area = Bind.mux_area binding in
  ignore block;
  {
    latency = n_states;
    fu_alloc = binding.Bind.fu_alloc;
    fu_area;
    registers = binding.Bind.n_registers;
    reg_area;
    mux_area;
    ctrl_area;
    total_area = fu_area + reg_area + mux_area + ctrl_area;
  }

let estimate_block block =
  let sched = run_scheduler (List_sched default_resources) block in
  let binding = Bind.bind block sched in
  report_of block sched binding

let synthesize_block ?name ?(scheduler = List_sched default_resources) block
    =
  let sched = run_scheduler scheduler block in
  let binding = Bind.bind block sched in
  let fsmd = Controller.of_block ?name block sched in
  (fsmd, report_of block sched binding)

type behavior_estimate = {
  cycles : int;
  area : int;
  mix : (string * int) list;
  n_blocks : int;
}

let estimate proc =
  let cdfg = B.elaborate proc in
  let reports = List.map (fun b -> (b, estimate_block b)) cdfg.C.blocks in
  let cycles =
    List.fold_left
      (fun acc (b, r) -> acc + (b.C.trip * r.latency))
      0 reports
  in
  (* shared datapath: per-class max FU allocation over blocks, worst-case
     register file, summed controllers (each block keeps its control
     states in the composed machine) *)
  let alloc : (string, int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (_, r) ->
      List.iter
        (fun (cls, k) ->
          let cur = try Hashtbl.find alloc cls with Not_found -> 0 in
          if k > cur then Hashtbl.replace alloc cls k)
        r.fu_alloc)
    reports;
  let fu_area =
    Hashtbl.fold
      (fun cls k acc -> acc + (k * Sched.fu_class_area cls))
      alloc 0
  in
  let reg_area =
    32 * List.fold_left (fun acc (_, r) -> max acc r.registers) 0 reports
  in
  let mux_area =
    List.fold_left (fun acc (_, r) -> max acc r.mux_area) 0 reports
  in
  let ctrl_area =
    List.fold_left (fun acc (_, r) -> acc + r.ctrl_area) 0 reports
  in
  {
    cycles;
    area = fu_area + reg_area + mux_area + ctrl_area;
    mix = C.op_mix cdfg;
    n_blocks = List.length reports;
  }
