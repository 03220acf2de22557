type boundary = Type_I | Type_II | Mixed_boundary
type activity = Co_simulation | Co_synthesis | Hw_sw_partitioning
type cosim_level = Pin_level | Bus_transaction | Driver_call | Os_message

type factor =
  | Performance
  | Implementation_cost
  | Modifiability
  | Nature_of_computation
  | Concurrency
  | Communication

type abstraction = Gate_netlist | Register_transfer | Behavioral | Program

type component = {
  comp_name : string;
  is_software : bool;
  level : abstraction;
  executes_on : string option;
}

let level_rank = function
  | Gate_netlist -> 0
  | Register_transfer -> 1
  | Behavioral -> 2
  | Program -> 3

let classify components =
  if components = [] then invalid_arg "Taxonomy.classify: empty system";
  let sw = List.filter (fun c -> c.is_software) components in
  let hw = List.filter (fun c -> not c.is_software) components in
  if sw = [] then invalid_arg "Taxonomy.classify: no software components";
  if hw = [] then invalid_arg "Taxonomy.classify: no hardware components";
  (* Each SW component forms a boundary with the HW side: logical when it
     executes on (or is more abstract than) the hardware, physical when
     it has a hardware peer at the same level. *)
  let boundary_of (s : component) =
    let runs_on_hw =
      match s.executes_on with
      | Some host -> List.exists (fun h -> h.comp_name = host) hw
      | None -> false
    in
    if runs_on_hw then
      (* the host's level vs the software's decides: Type I systems view
         the hardware at a lower level of abstraction *)
      let host_levels =
        List.filter_map
          (fun h ->
            if Some h.comp_name = s.executes_on then Some (level_rank h.level)
            else None)
          hw
      in
      let peer_hw =
        List.exists
          (fun h ->
            Some h.comp_name <> s.executes_on
            && level_rank h.level = level_rank s.level)
          hw
      in
      if List.exists (fun l -> l < level_rank s.level) host_levels then
        if peer_hw then Mixed_boundary else Type_I
      else Type_II
    else if
      List.exists (fun h -> level_rank h.level = level_rank s.level) hw
    then Type_II
    else Type_I
  in
  let kinds = List.sort_uniq compare (List.map boundary_of sw) in
  match kinds with
  | [ k ] -> k
  | _ -> Mixed_boundary

type methodology = {
  m_name : string;
  system_class : string;
  section : string;
  m_boundary : boundary;
  activities : activity list;
  cosim_levels : cosim_level list;
  factors : factor list;
  implemented_by : string;
}

let catalogue =
  [
    {
      m_name = "pin-level co-simulation";
      system_class = "embedded microprocessor";
      section = "4.1 [4]";
      m_boundary = Type_I;
      activities = [ Co_simulation ];
      cosim_levels = [ Pin_level ];
      factors = [];
      implemented_by = "Cosim + Codesign_bus.Bus.Pin + Codesign_isa.Cpu";
    };
    {
      m_name = "interface co-synthesis (Chinook)";
      system_class = "embedded microprocessor";
      section = "4.1 [11]";
      m_boundary = Type_I;
      activities = [ Co_simulation; Co_synthesis ];
      cosim_levels = [ Bus_transaction ];
      factors = [];
      implemented_by = "Codesign_bus.Interface_synth";
    };
    {
      m_name = "exact multiprocessor synthesis (SOS)";
      system_class = "heterogeneous multiprocessor";
      section = "4.2 [12]";
      m_boundary = Type_I;
      activities = [ Co_synthesis ];
      cosim_levels = [];
      factors = [];
      implemented_by = "Cosynth.sos";
    };
    {
      m_name = "vector bin-packing synthesis";
      system_class = "heterogeneous multiprocessor";
      section = "4.2 [13]";
      m_boundary = Type_I;
      activities = [ Co_synthesis ];
      cosim_levels = [];
      factors = [];
      implemented_by = "Cosynth.binpack";
    };
    {
      m_name = "sensitivity-driven co-synthesis";
      system_class = "heterogeneous multiprocessor";
      section = "4.2 [9]";
      m_boundary = Type_I;
      activities = [ Co_synthesis ];
      cosim_levels = [];
      factors = [];
      implemented_by = "Cosynth.sensitivity + Periodic";
    };
    {
      m_name = "ASIP instruction-set extension (PEAS-I)";
      system_class = "application-specific instruction set processor";
      section = "4.3 [14]";
      m_boundary = Type_I;
      activities = [ Co_synthesis; Hw_sw_partitioning ];
      cosim_levels = [];
      factors = [ Performance; Implementation_cost; Modifiability ];
      implemented_by = "Asip";
    };
    {
      m_name = "reconfigurable special-purpose FUs (metamorphosis)";
      system_class = "special-purpose functional units";
      section = "4.4 [15]";
      m_boundary = Type_I;
      activities = [ Co_synthesis; Hw_sw_partitioning ];
      cosim_levels = [];
      factors = [ Performance; Implementation_cost; Modifiability ];
      implemented_by = "Asip.Reconfig";
    };
    {
      m_name = "co-processor cosynthesis (Gupta/De Micheli style)";
      system_class = "application-specific co-processor";
      section = "4.5 [6]";
      m_boundary = Type_II;
      activities = [ Co_synthesis; Hw_sw_partitioning ];
      cosim_levels = [];
      factors = [ Performance; Implementation_cost ];
      implemented_by = "Partition.greedy + Codesign_hls.Hls";
    };
    {
      m_name = "co-processor partitioning with adaptation (COSYMA style)";
      system_class = "application-specific co-processor";
      section = "4.5 [17]";
      m_boundary = Type_II;
      activities = [ Co_synthesis; Hw_sw_partitioning ];
      cosim_levels = [];
      factors = [ Performance; Implementation_cost ];
      implemented_by = "Partition.simulated_annealing";
    };
    {
      m_name = "sharing-aware partitioning (Vahid/Gajski estimation)";
      system_class = "application-specific co-processor";
      section = "4.5 [16][18]";
      m_boundary = Type_II;
      activities = [ Co_synthesis; Hw_sw_partitioning ];
      cosim_levels = [];
      factors = [ Performance; Implementation_cost; Concurrency ];
      implemented_by = "Cost (sharing) + Codesign_rtl.Estimate.Incremental";
    };
    {
      m_name = "multiple-process behavioural synthesis";
      system_class = "multi-threaded co-processor";
      section = "4.6 [10]";
      m_boundary = Type_II;
      activities = [ Co_synthesis; Hw_sw_partitioning ];
      cosim_levels = [];
      factors =
        [
          Performance; Implementation_cost; Nature_of_computation;
          Concurrency; Communication;
        ];
      implemented_by = "Coproc";
    };
    {
      m_name = "message-level co-simulation";
      system_class = "multi-threaded co-processor";
      section = "4.6 [3]";
      m_boundary = Type_II;
      activities = [ Co_simulation ];
      cosim_levels = [ Os_message ];
      factors = [];
      implemented_by = "Cosim + Codesign_sim.Channel";
    };
    {
      m_name = "GCLP partitioning (Kalavade/Lee)";
      system_class = "application-specific co-processor";
      section = "references [1][5]";
      m_boundary = Type_II;
      activities = [ Co_synthesis; Hw_sw_partitioning ];
      cosim_levels = [];
      factors = [ Performance; Implementation_cost; Nature_of_computation ];
      implemented_by = "Partition.gclp";
    };
  ]

let boundary_name = function
  | Type_I -> "Type I"
  | Type_II -> "Type II"
  | Mixed_boundary -> "mixed"

let activity_name = function
  | Co_simulation -> "co-simulation"
  | Co_synthesis -> "co-synthesis"
  | Hw_sw_partitioning -> "partitioning"

let cosim_level_name = function
  | Pin_level -> "pin/signal"
  | Bus_transaction -> "bus transaction"
  | Driver_call -> "driver call"
  | Os_message -> "send/receive/wait"

let factor_name = function
  | Performance -> "performance"
  | Implementation_cost -> "cost"
  | Modifiability -> "modifiability"
  | Nature_of_computation -> "nature of computation"
  | Concurrency -> "concurrency"
  | Communication -> "communication"

let criteria m =
  [
    ("system type", boundary_name m.m_boundary);
    ( "design tasks",
      String.concat ", " (List.map activity_name m.activities) );
    ( "co-simulation level",
      if m.cosim_levels = [] then "-"
      else String.concat ", " (List.map cosim_level_name m.cosim_levels) );
    ( "partitioning factors",
      if m.factors = [] then "-"
      else String.concat ", " (List.map factor_name m.factors) );
  ]
