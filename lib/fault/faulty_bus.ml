module K = Codesign_sim.Kernel
module Rng = Codesign_ir.Rng
module T = Codesign_bus.Transport
module Checksum = Codesign_obs.Checksum

type error = Corrupt | Timeout
type kind = Flip of int | Drop | Stuck

type t = {
  k : K.t;
  inj : Injector.t;
  tr : T.t;
  mutable stuck_until : int;
  mutable stuck_bit : int;
  mutable stuck_val : int;
}

(* Cycles a raw master hangs on a dropped response before the line
   floats to 0. *)
let hang = 2000

(* Cycles a stuck-at data line holds its bit. *)
let stuck_cycles = 600

(* Cycles a checked access waits for a dropped response. *)
let timeout = 64

let create k inj tr =
  {
    k;
    inj;
    tr;
    stuck_until = 0;
    stuck_bit = 0;
    stuck_val = 0;
  }

let stuck_active t = K.now t.k < t.stuck_until

type snap = {
  s_stuck_until : int;
  s_stuck_bit : int;
  s_stuck_val : int;
  s_tr : T.snap;
}

let snapshot t =
  {
    s_stuck_until = t.stuck_until;
    s_stuck_bit = t.stuck_bit;
    s_stuck_val = t.stuck_val;
    s_tr = T.snapshot t.tr;
  }

let restore t s =
  t.stuck_until <- s.s_stuck_until;
  t.stuck_bit <- s.s_stuck_bit;
  t.stuck_val <- s.s_stuck_val;
  T.restore t.tr s.s_tr

(* Campaign data fits in the low 10 bits, so faults there always alter
   the word visibly. *)
let data_bits = 10

(* FNV-1a over the datum's decimal text, hashed without building it *)
let tag_of v = Checksum.fold_int Checksum.offset_basis v

(* Force the stuck line's bit; report to the injector iff it actually
   alters the word on the wire. *)
let apply_stuck t v =
  if not (stuck_active t) then v
  else
    let v' =
      if t.stuck_val = 1 then v lor (1 lsl t.stuck_bit)
      else v land lnot (1 lsl t.stuck_bit)
    in
    if v' <> v then
      Injector.injected_event t.inj Injector.Bus ~time:(K.now t.k);
    v'

let draw_kind t =
  if not (Injector.fires t.inj) then None
  else
    let rng = Injector.shape t.inj in
    let r = Rng.int rng 100 in
    if r < 60 then Some (Flip (Rng.int rng data_bits))
    else if r < 85 then Some Drop
    else begin
      t.stuck_until <- K.now t.k + stuck_cycles;
      t.stuck_bit <- Rng.int rng data_bits;
      t.stuck_val <- (if Rng.bool rng then 1 else 0);
      Some Stuck
    end

let inj t = Injector.injected_event t.inj Injector.Bus ~time:(K.now t.k)
let det t = Injector.detected_event t.inj Injector.Bus ~time:(K.now t.k)

(* ------------------------------------------------------------------ *)
(* raw (pin-level) view: silent corruption, hangs on drops             *)
(* ------------------------------------------------------------------ *)

let raw_read t a =
  let v = apply_stuck t (t.tr.T.read a) in
  match draw_kind t with
  | None -> v
  | Some (Flip b) ->
      inj t;
      v lxor (1 lsl b)
  | Some Drop ->
      inj t;
      K.wait hang;
      0
  | Some Stuck -> apply_stuck t v

let raw_write t a v =
  let v = apply_stuck t v in
  match draw_kind t with
  | None -> t.tr.T.write a v
  | Some (Flip b) ->
      inj t;
      t.tr.T.write a (v lxor (1 lsl b))
  | Some Drop ->
      inj t;
      K.wait hang
  | Some Stuck -> t.tr.T.write a (apply_stuck t v)

(* ------------------------------------------------------------------ *)
(* checked (bus-transaction) view: parity tags + bounded timeouts      *)
(* ------------------------------------------------------------------ *)

let check t ~tag v =
  if tag_of v <> tag then begin
    det t;
    Error Corrupt
  end
  else Ok v

let read t a =
  let true_v = t.tr.T.read a in
  let tag = tag_of true_v in
  let v = apply_stuck t true_v in
  match draw_kind t with
  | None -> check t ~tag v
  | Some (Flip b) ->
      inj t;
      check t ~tag (v lxor (1 lsl b))
  | Some Drop ->
      inj t;
      K.wait timeout;
      det t;
      Error Timeout
  | Some Stuck -> check t ~tag (apply_stuck t v)

let write t a v =
  let deliver v' =
    t.tr.T.write a v';
    (* read-back verify; an open stuck window corrupts this too *)
    let r = apply_stuck t (t.tr.T.read a) in
    if r <> v then begin
      det t;
      Error Corrupt
    end
    else Ok ()
  in
  let v0 = apply_stuck t v in
  match draw_kind t with
  | None -> deliver v0
  | Some (Flip b) ->
      inj t;
      deliver (v0 lxor (1 lsl b))
  | Some Drop ->
      inj t;
      K.wait timeout;
      det t;
      Error Timeout
  | Some Stuck -> deliver (apply_stuck t v0)

(* ------------------------------------------------------------------ *)
(* checked transfers under a retry policy                              *)
(* ------------------------------------------------------------------ *)

module Policy = Codesign_resil.Policy

let retry_op ~policy ?on_retry op =
  Policy.retry policy ~wait:K.wait ?on_retry (fun ~attempt:_ -> op ())

let read_retry t ~policy ?on_retry a =
  retry_op ~policy ?on_retry (fun () -> read t a)

let write_retry t ~policy ?on_retry a v =
  retry_op ~policy ?on_retry (fun () -> write t a v)
