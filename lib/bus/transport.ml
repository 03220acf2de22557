module K = Codesign_sim.Kernel
module Ch = Codesign_sim.Channel

type level = Pin | Transaction | Driver | Message

let all_levels = [ Pin; Transaction; Driver; Message ]

let level_name = function
  | Pin -> "pin/signal"
  | Transaction -> "bus transaction"
  | Driver -> "driver call"
  | Message -> "send/receive/wait"

let short_name = function
  | Pin -> "pin"
  | Transaction -> "tlm"
  | Driver -> "driver"
  | Message -> "message"

let level_of_string s =
  match String.lowercase_ascii s with
  | "pin" -> Ok Pin
  | "tlm" | "transaction" -> Ok Transaction
  | "driver" -> Ok Driver
  | "message" | "msg" -> Ok Message
  | other ->
      Error
        (Printf.sprintf
           "unknown interface level %S (expected pin | tlm | driver | \
            message)"
           other)

let rank = function Pin -> 0 | Transaction -> 1 | Driver -> 2 | Message -> 3

type t = {
  level : level;
  lookahead : int;
  read : int -> int;
  write : int -> int -> unit;
  wait_ready : int -> unit;
  stats : unit -> Bus.stats;
  save : unit -> unit -> unit;
}

type snap = { owner : t; apply : unit -> unit }

let snapshot t = { owner = t; apply = t.save () }

let restore t s =
  if s.owner != t then
    invalid_arg "Transport.restore: snapshot belongs to a different transport";
  s.apply ()

(* ------------------------------------------------------------------ *)
(* bus-backed rungs                                                    *)
(* ------------------------------------------------------------------ *)

(* Cycles between two status reads of a bus or driver [wait_ready]. *)
let poll_interval = 8

(* A bus rung: every access, status polls included, is a bus
   transfer. *)
let bus_rung level ~lookahead ~read ~write ~stats ~save =
  {
    level;
    lookahead;
    read;
    write;
    wait_ready =
      (fun addr ->
        let rec poll () =
          if read addr > 0 then ()
          else begin
            K.wait poll_interval;
            poll ()
          end
        in
        poll ());
    stats;
    save;
  }

let pin kernel map =
  let b = Bus.Pin.create kernel map in
  (* Every pin access costs at least the setup handshake, so that is the
     rung's guaranteed lookahead. *)
  bus_rung Pin ~lookahead:Bus.Pin.setup_cycles ~read:(Bus.Pin.read b)
    ~write:(Bus.Pin.write b)
    ~stats:(fun () -> Bus.Pin.stats b)
    ~save:(fun () ->
      let s = Bus.Pin.snapshot b in
      fun () -> Bus.Pin.restore b s)

let tlm kernel map =
  let b = Bus.Tlm.create kernel map in
  (* lookahead: a Bus.Tlm transfer takes 2 cycles *)
  bus_rung Transaction ~lookahead:2 ~read:(Bus.Tlm.read b)
    ~write:(Bus.Tlm.write b)
    ~stats:(fun () -> Bus.Tlm.stats b)
    ~save:(fun () ->
      let s = Bus.Tlm.snapshot b in
      fun () -> Bus.Tlm.restore b s)

(* ------------------------------------------------------------------ *)
(* driver-call rung                                                    *)
(* ------------------------------------------------------------------ *)

(* cycles one driver entry costs *)
let call_cost = 6

let driver map =
  let reads = ref 0 and writes = ref 0 in
  {
    level = Driver;
    lookahead = call_cost;
    read =
      (fun addr ->
        incr reads;
        K.wait call_cost;
        Memory_map.read map addr);
    write =
      (fun addr v ->
        incr writes;
        K.wait call_cost;
        Memory_map.write map addr v);
    wait_ready =
      (fun addr ->
        (* device readiness is observed functionally: the status spins
           are not driver entries and generate no bus traffic *)
        let rec poll () =
          if Memory_map.read map addr > 0 then ()
          else begin
            K.wait poll_interval;
            poll ()
          end
        in
        poll ());
    stats =
      (fun () ->
        { Bus.reads = !reads; writes = !writes; stalls = 0; busy_cycles = 0 });
    save =
      (fun () ->
        let r = !reads and w = !writes in
        fun () ->
          reads := r;
          writes := w);
  }

(* ------------------------------------------------------------------ *)
(* send/receive/wait rung                                              *)
(* ------------------------------------------------------------------ *)

type msg_endpoint = Recv_ep of int Ch.t | Send_ep of int Ch.t

let message ?(recv = []) ?(send = []) () =
  let endpoints =
    List.map (fun (base, c) -> (base, Recv_ep c)) recv
    @ List.map (fun (base, c) -> (base, Send_ep c)) send
  in
  let lookup addr =
    (* [addr] may be a status (base) or data (base + 1) register *)
    match List.assoc_opt addr endpoints with
    | Some ep -> (ep, `Status)
    | None -> (
        match List.assoc_opt (addr - 1) endpoints with
        | Some ep -> (ep, `Data)
        | None ->
            invalid_arg
              (Printf.sprintf
                 "Transport.message: address %d is bound to no channel \
                  endpoint"
                 addr))
  in
  let would_proceed = function
    | Recv_ep c -> Ch.occupancy c > 0
    (* a latency channel is a delay line: sends always proceed *)
    | Send_ep c -> Ch.latency c > 0 || Ch.occupancy c < Ch.depth c
  in
  (* The rung's lookahead is the weakest guarantee over its endpoints:
     the minimum declared channel latency (0 if any endpoint is an
     immediate channel, or if there are none). *)
  let ep_latency = function Recv_ep c | Send_ep c -> Ch.latency c in
  let lookahead =
    match endpoints with
    | [] -> 0
    | (_, e0) :: rest ->
        List.fold_left
          (fun acc (_, e) -> min acc (ep_latency e))
          (ep_latency e0) rest
  in
  {
    level = Message;
    lookahead;
    read =
      (fun addr ->
        match lookup addr with
        | ep, `Status -> if would_proceed ep then 1 else 0
        | Recv_ep c, `Data -> Ch.recv c
        | Send_ep _, `Data ->
            invalid_arg "Transport.message: read from a send endpoint");
    write =
      (fun addr v ->
        match lookup addr with
        | Send_ep c, `Data -> Ch.send c v
        | Recv_ep _, `Data ->
            invalid_arg "Transport.message: write to a receive endpoint"
        | _, `Status ->
            invalid_arg "Transport.message: write to a status register");
    (* data operations block on the channel themselves; a separate wait
       would double-count the synchronisation *)
    wait_ready = (fun _ -> ());
    stats =
      (fun () -> { Bus.reads = 0; writes = 0; stalls = 0; busy_cycles = 0 });
    (* the record itself is stateless: every bit of state lives in the
       bound channels, which their owner snapshots directly *)
    save = (fun () () -> ());
  }

(* ------------------------------------------------------------------ *)
(* transactor                                                          *)
(* ------------------------------------------------------------------ *)

let view t ~as_ =
  if rank as_ < rank t.level then
    invalid_arg
      (Printf.sprintf
         "Transport.view: cannot present a %s transport at the more \
          detailed %s level"
         (short_name t.level) (short_name as_))
  else { t with level = as_ }
