module A = Codesign_isa.Asm
module I = Codesign_isa.Isa
module N = Codesign_rtl.Netlist

type direction = In_port | Out_port
type mode = Polled | Irq_driven of int

type port_spec = {
  pname : string;
  direction : direction;
  data_offset : int;
  status_offset : int option;
  mode : mode;
}

type device_spec = {
  dname : string;
  base : int;
  addr_bits : int;
  ports : port_spec list;
}

type driver = {
  routines : (string * A.item list) list;
  isr : A.item list option;
  mailboxes : (string * int) list;
  init_ready : int list;
  code_bytes : int;
}

type glue = {
  netlist : N.t;
  gate_count : int;
  area : int;
  sync_flops : int;
}

(* the interrupt controller window the generated ISR reads, and where
   input mailboxes start in CPU-local memory *)
let intc_base = 0x1FF00
let mailbox_base = 3800

let validate spec =
  let names = List.map (fun p -> p.pname) spec.ports in
  if List.length (List.sort_uniq compare names) <> List.length names then
    invalid_arg "Interface_synth: duplicate port names";
  List.iter
    (fun p ->
      (match (p.mode, p.status_offset) with
      | Polled, None ->
          invalid_arg
            (Printf.sprintf
               "Interface_synth: polled port %s needs a status register"
               p.pname)
      | _ -> ());
      match p.mode with
      | Irq_driven l when l < 0 || l > 29 ->
          invalid_arg
            (Printf.sprintf "Interface_synth: irq line %d out of range" l)
      | _ -> ())
    spec.ports

(* ------------------------------------------------------------------ *)
(* Software half                                                       *)
(* ------------------------------------------------------------------ *)

let routine_name spec p =
  Printf.sprintf "%s_%s_%s" spec.dname p.pname
    (match p.direction with In_port -> "read" | Out_port -> "write")

let polled_routine spec p =
  let name = routine_name spec p in
  let status =
    match p.status_offset with Some s -> spec.base + s | None -> assert false
  in
  let data = spec.base + p.data_offset in
  [ A.Label name; A.Label (name ^ "_poll") ]
  @ [
      A.Ins (I.Lw (3, 0, status));
      A.Ins (I.B (I.Eq, 3, 0, name ^ "_poll"));
    ]
  @ (match p.direction with
    | In_port -> [ A.Ins (I.Lw (2, 0, data)) ]
    | Out_port -> [ A.Ins (I.Sw (2, 0, data)) ])
  @ [ A.Ins (I.Jr 31) ]

(* Mailbox layout: 2 words per irq-driven port: [data; valid-flag]. *)
let irq_routine spec p ~mailbox =
  let name = routine_name spec p in
  let data = spec.base + p.data_offset in
  match p.direction with
  | In_port ->
      (* wait for the ISR to flag arrival, consume, clear the flag *)
      [ A.Label name; A.Label (name ^ "_poll") ]
      @ [
          A.Ins (I.Lw (3, 0, mailbox + 1));
          A.Ins (I.B (I.Eq, 3, 0, name ^ "_poll"));
          A.Ins (I.Lw (2, 0, mailbox));
          A.Ins (I.Sw (0, 0, mailbox + 1));
          A.Ins (I.Jr 31);
        ]
  | Out_port ->
      (* wait for the ready flag (set at reset and by the ISR), clear it,
         write the data register *)
      [ A.Label name; A.Label (name ^ "_poll") ]
      @ [
          A.Ins (I.Lw (3, 0, mailbox + 1));
          A.Ins (I.B (I.Eq, 3, 0, name ^ "_poll"));
          A.Ins (I.Sw (0, 0, mailbox + 1));
          A.Ins (I.Sw (2, 0, data));
          A.Ins (I.Jr 31);
        ]

let isr_code spec ~intc_base ~mailboxes =
  let irq_ports =
    List.filter
      (fun p -> match p.mode with Irq_driven _ -> true | _ -> false)
      spec.ports
  in
  if irq_ports = [] then None
  else begin
    let body = ref [] in
    let emit i = body := A.Ins i :: !body in
    let label l = body := A.Label l :: !body in
    label "isr";
    (* r29 <- current line *)
    emit (I.Lw (29, 0, intc_base + 3));
    List.iteri
      (fun idx p ->
        let line =
          match p.mode with Irq_driven l -> l | Polled -> assert false
        in
        let mailbox = List.assoc p.pname mailboxes in
        let next = Printf.sprintf "isr_next%d" idx in
        emit (I.Li (30, line));
        emit (I.B (I.Ne, 29, 30, next));
        (match p.direction with
        | In_port ->
            (* fetch the datum, deposit in the mailbox, flag valid *)
            emit (I.Lw (30, 0, spec.base + p.data_offset));
            emit (I.Sw (30, 0, mailbox));
            emit (I.Li (30, 1));
            emit (I.Sw (30, 0, mailbox + 1))
        | Out_port ->
            (* device became ready again: set the ready flag *)
            emit (I.Li (30, 1));
            emit (I.Sw (30, 0, mailbox + 1)));
        (* acknowledge the line *)
        emit (I.Li (30, 1 lsl line));
        emit (I.Sw (30, 0, intc_base + 1));
        emit (I.J "isr_done");
        label next)
      irq_ports;
    label "isr_done";
    emit I.Rti;
    Some (List.rev !body)
  end

(* ------------------------------------------------------------------ *)
(* Hardware half                                                       *)
(* ------------------------------------------------------------------ *)

let window_bits spec =
  let max_off =
    List.fold_left
      (fun acc p ->
        let s = match p.status_offset with Some s -> s | None -> 0 in
        max acc (max p.data_offset s))
      0 spec.ports
  in
  let rec bits k = if 1 lsl k > max_off then k else bits (k + 1) in
  max 1 (bits 1)

let data_bits = 32

let glue_netlist spec =
  let b = N.Builder.create ~name:(spec.dname ^ "_glue") () in
  let wbits = window_bits spec in
  let high_bits = max 1 (spec.addr_bits - wbits) in
  (* address inputs *)
  let addr =
    List.init spec.addr_bits (fun i ->
        N.Builder.input b (Printf.sprintf "a%d" i))
  in
  (* device-select: high address bits match base >> wbits *)
  let want = spec.base lsr wbits in
  let sel_bits =
    List.init high_bits (fun i ->
        let a = List.nth addr (wbits + i) in
        if (want lsr i) land 1 = 1 then a else N.Builder.not1 b a)
  in
  let dev_sel = N.Builder.and_many b sel_bits in
  N.Builder.output b "dev_sel" dev_sel;
  (* per-port register select within the window *)
  let port_sel =
    List.map
      (fun p ->
        let off = p.data_offset in
        let bits =
          List.init wbits (fun i ->
              let a = List.nth addr i in
              if (off lsr i) land 1 = 1 then a else N.Builder.not1 b a)
        in
        let s = N.Builder.and_many b (dev_sel :: bits) in
        N.Builder.output b (Printf.sprintf "sel_%s" p.pname) s;
        (p, s))
      spec.ports
  in
  (* read-data multiplexer chain over input ports *)
  let in_ports = List.filter (fun (p, _) -> p.direction = In_port) port_sel in
  (match in_ports with
  | [] -> ()
  | (p0, _) :: rest ->
      let data_of (p : port_spec) bit =
        N.Builder.input b (Printf.sprintf "d_%s_b%d" p.pname bit)
      in
      let first = List.init data_bits (data_of p0) in
      let final =
        List.fold_left
          (fun acc (p, sel) ->
            List.mapi
              (fun bit acc_b ->
                N.Builder.mux b ~sel ~a:acc_b ~b_in:(data_of p bit))
              acc)
          first rest
      in
      List.iteri
        (fun bit net ->
          N.Builder.output b (Printf.sprintf "rdata_b%d" bit) net)
        final);
  (* interrupt synchronisers: 2 flops per irq line *)
  let sync_flops = ref 0 in
  List.iter
    (fun p ->
      match p.mode with
      | Irq_driven _ ->
          let raw = N.Builder.input b (Printf.sprintf "irq_%s" p.pname) in
          let s1 = N.Builder.dff b raw in
          let s2 = N.Builder.dff b s1 in
          sync_flops := !sync_flops + 2;
          N.Builder.output b (Printf.sprintf "irq_sync_%s" p.pname) s2
      | Polled -> ())
    spec.ports;
  (* registered status bit per status port *)
  List.iter
    (fun p ->
      match p.status_offset with
      | Some _ ->
          let raw = N.Builder.input b (Printf.sprintf "rdy_%s" p.pname) in
          let q = N.Builder.dff b raw in
          N.Builder.output b (Printf.sprintf "status_%s" p.pname) q
      | None -> ())
    spec.ports;
  (N.Builder.finish b, !sync_flops)

(* ------------------------------------------------------------------ *)

let synthesize spec =
  validate spec;
  (* assign mailboxes to irq-driven ports *)
  let mailboxes =
    let next = ref mailbox_base in
    List.filter_map
      (fun p ->
        match p.mode with
        | Irq_driven _ ->
            let m = !next in
            next := !next + 2;
            Some (p.pname, m)
        | Polled -> None)
      spec.ports
  in
  let routines =
    List.map
      (fun p ->
        let code =
          match p.mode with
          | Polled -> polled_routine spec p
          | Irq_driven _ ->
              irq_routine spec p ~mailbox:(List.assoc p.pname mailboxes)
        in
        (routine_name spec p, code))
      spec.ports
  in
  let isr = isr_code spec ~intc_base ~mailboxes in
  let code_bytes =
    List.fold_left (fun acc (_, c) -> acc + A.size_bytes c) 0 routines
    + (match isr with Some c -> A.size_bytes c | None -> 0)
  in
  let netlist, sync_flops = glue_netlist spec in
  let init_ready =
    List.filter_map
      (fun p ->
        match (p.mode, p.direction) with
        | Irq_driven _, Out_port -> Some (List.assoc p.pname mailboxes)
        | _ -> None)
      spec.ports
  in
  ( { routines; isr; mailboxes; init_ready; code_bytes },
    {
      netlist;
      gate_count = N.gate_count netlist;
      area = N.area netlist;
      sync_flops;
    } )

let program ?(entry = [ A.Ins I.Halt ]) driver =
  let isr_block =
    match driver.isr with
    | Some isr -> isr
    | None -> [ A.Label "isr"; A.Ins I.Rti ]
  in
  (* reset-time mailbox init: output ports start ready *)
  let init =
    List.concat_map
      (fun m -> [ A.Ins (I.Li (30, 1)); A.Ins (I.Sw (30, 0, m + 1)) ])
      driver.init_ready
  in
  (* index 0 jumps over the ISR; the ISR sits at the irq vector (1) *)
  [ A.Ins (I.J "main") ]
  @ isr_block
  @ [ A.Label "main" ]
  @ init
  @ [ A.Ins I.Ei ]
  @ entry
  @ List.concat_map snd driver.routines
