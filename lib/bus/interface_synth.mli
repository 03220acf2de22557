(** Chinook-style hardware/software interface co-synthesis
    (paper §4.1, ref [11]).

    Chinook's observation: for embedded microprocessor systems the
    designer should not write device drivers and glue logic by hand —
    both sides of the HW/SW interface can be synthesised from one port
    specification.  Given a {!device_spec}, {!synthesize} produces:

    - the {b software half}: one assembly routine per port
      ([<dev>_<port>_read] / [<dev>_<port>_write], value in r2,
      clobbers r3-r5, returns via [jr r31]) that polls the port's status
      register when the port is polled, or accesses data directly when
      interrupt-driven; plus, when any port is interrupt-driven, an ISR
      that reads the interrupt controller, stores arriving data into a
      per-port mailbox word, acknowledges the line and returns;
    - the {b hardware half}: the glue netlist — an address decoder for
      the device's register window, a 2-flop synchroniser per
      interrupt line, and a registered ready/status flop per status
      port — with gate-count and area statistics.

    The generated driver is real code: the test suite and EXP-4 run it
    on the ISS against device models over the bus and check end-to-end
    data transfer. *)

type direction = In_port | Out_port

type mode =
  | Polled  (** spin on the status register before each access *)
  | Irq_driven of int  (** interrupt line number on the controller *)

type port_spec = {
  pname : string;
  direction : direction;
  data_offset : int;  (** data register, words from device base *)
  status_offset : int option;  (** ready/available register *)
  mode : mode;
}

type device_spec = {
  dname : string;
  base : int;  (** device base address on the bus *)
  addr_bits : int;  (** decoded address width for the glue decoder *)
  ports : port_spec list;
}

type driver = {
  routines : (string * Codesign_isa.Asm.item list) list;
      (** routine label -> code, one per port *)
  isr : Codesign_isa.Asm.item list option;
      (** present iff any port is interrupt-driven *)
  mailboxes : (string * int) list;
      (** per irq-driven port: mailbox word address ([data; flag]) *)
  init_ready : int list;
      (** mailboxes whose ready flag must be set at reset (irq-driven
          output ports); {!program} emits the initialisation *)
  code_bytes : int;
}

type glue = {
  netlist : Codesign_rtl.Netlist.t;
  gate_count : int;
  area : int;
  sync_flops : int;
}

val synthesize : device_spec -> driver * glue
(** The generated ISR reads the interrupt controller window at 0x1FF00;
    input mailboxes are placed from address 3800 in CPU-local memory.
    @raise Invalid_argument on a polled port without a status register,
    duplicate port names, or an irq line outside 0..29. *)

val program :
  ?entry:Codesign_isa.Asm.item list -> driver -> Codesign_isa.Asm.item list
(** Assembles a complete image layout: a jump over the ISR, the ISR at
    the interrupt vector (index 1), then the [entry] code (default: a
    single [halt]), then the port routines.  Callers invoke routines
    with [jal r31, <routine>]. *)
