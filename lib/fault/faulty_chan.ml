module K = Codesign_sim.Kernel
module Ch = Codesign_sim.Channel
module Rng = Codesign_ir.Rng
module Checksum = Codesign_obs.Checksum
module Policy = Codesign_resil.Policy

type frame = { seq : int; idx : int; v : int; last : bool; tag : int }

type t = {
  k : K.t;
  inj : Injector.t;
  data : frame Ch.t;
  ack : (int * int) Ch.t;  (* (seq, ack tag) *)
  mutable next_seq : int;
  mutable expected : int;
  mutable retrans : int;
}

(* ARQ timing in simulated cycles, and the retransmission budgets of
   data frames and of END (see [close]). *)
let retries = 8
let end_retries = 20
let ack_timeout = 40
let poll = 4
let link_delay = 2

let low24 i64 = Int64.to_int (Int64.logand i64 0xFFFFFFL)

(* The tagged bytes are "seq:idx:v:last" and "ack:seq", built by
   concatenation rather than a per-frame [Printf.sprintf]. *)
let tag_of ~seq ~idx ~v ~last =
  low24
    (Checksum.fnv1a64
       (string_of_int seq ^ ":" ^ string_of_int idx ^ ":" ^ string_of_int v
      ^ ":" ^ string_of_bool last))

let ack_tag seq = low24 (Checksum.fnv1a64 ("ack:" ^ string_of_int seq))

let create k inj =
  {
    k;
    inj;
    (* deep enough that stop-and-wait traffic (plus retransmit storms
       around close) can never fill them: a blocked receiver must only
       ever be blocked on [recv], or sender and receiver can deadlock
       on two full channels *)
    data = Ch.create ~depth:64 ~name:"fault.data" k ();
    ack = Ch.create ~depth:64 ~name:"fault.ack" k ();
    next_seq = 0;
    expected = 0;
    retrans = 0;
  }

let retransmissions t = t.retrans

type snap = {
  s_data : frame Ch.snap;
  s_ack : (int * int) Ch.snap;
  s_next_seq : int;
  s_expected : int;
  s_retrans : int;
}

let snapshot t =
  {
    s_data = Ch.snapshot t.data;
    s_ack = Ch.snapshot t.ack;
    s_next_seq = t.next_seq;
    s_expected = t.expected;
    s_retrans = t.retrans;
  }

let restore t s =
  Ch.restore t.data s.s_data;
  Ch.restore t.ack s.s_ack;
  t.next_seq <- s.s_next_seq;
  t.expected <- s.s_expected;
  t.retrans <- s.s_retrans
let inj_event t = Injector.injected_event t.inj Injector.Chan ~time:(K.now t.k)
let det_event t = Injector.detected_event t.inj Injector.Chan ~time:(K.now t.k)

(* The faulty medium, data direction: drop / duplicate / corrupt. *)
let link_send_data t f =
  K.wait link_delay;
  if not (Injector.fires t.inj) then Ch.send t.data f
  else begin
    inj_event t;
    let rng = Injector.shape t.inj in
    let r = Rng.int rng 100 in
    if r < 40 then () (* dropped *)
    else if r < 60 then begin
      Ch.send t.data f;
      Ch.send t.data f (* duplicated *)
    end
    else
      (* corrupted payload; the tag is now stale *)
      Ch.send t.data { f with v = f.v lxor (1 lsl Rng.int rng 10) }
  end

(* Ack direction: a faulty ack is simply lost.  Non-blocking: the
   receiver must never block on anything but [recv]. *)
let link_send_ack t seq =
  if Injector.fires t.inj then inj_event t (* dropped ack *)
  else ignore (Ch.try_send t.ack (seq, ack_tag seq))

(* [count_detect] is off for the end-of-stream frame: once the receiver
   has taken END and exited, nobody acks retransmits of it, and those
   timeouts would read as fault detections that never happened. *)
let send_frame t ~seq ~idx ~v ~last ~budget ~count_detect =
  let tag = tag_of ~seq ~idx ~v ~last in
  let f = { seq; idx; v; last; tag } in
  let transmit_once ~attempt:_ =
    link_send_data t f;
    let deadline = K.now t.k + ack_timeout in
    let rec await () =
      match Ch.try_recv t.ack with
      | Some (aseq, atag) ->
          if atag <> ack_tag aseq then begin
            (* corrupt ack *)
            det_event t;
            await ()
          end
          else if aseq = seq then true
          else await () (* stale ack from an earlier frame *)
      | None ->
          if K.now t.k >= deadline then false
          else begin
            K.wait poll;
            await ()
          end
    in
    if await () then Ok ()
    else begin
      (* ack timeout: the sender just detected a loss *)
      if count_detect then det_event t;
      Error ()
    end
  in
  (* Stop-and-wait retransmission as a retry policy: the budget caps
     retransmits (total transmissions = budget + 1), back-to-back — the
     ack timeout already spent the simulated time, so no extra backoff. *)
  let policy = Policy.create ~max_retries:budget ~backoff:Policy.No_backoff in
  let on_retry ~attempt:_ ~delay:_ = t.retrans <- t.retrans + 1 in
  match Policy.retry policy ~on_retry transmit_once with
  | Ok () -> true
  | Error (_ : unit Policy.exhausted) -> false

let send t ~idx v =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  send_frame t ~seq ~idx ~v ~last:false ~budget:retries ~count_detect:true

let close t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  (* a larger budget than data frames: losing END leaves the receiver
     blocked (harmless at quiescence) but we try hard to end cleanly *)
  ignore
    (send_frame t ~seq ~idx:(-1) ~v:0 ~last:true ~budget:end_retries
       ~count_detect:false)

let rec recv t =
  let f = Ch.recv t.data in
  if f.tag <> tag_of ~seq:f.seq ~idx:f.idx ~v:f.v ~last:f.last then begin
    (* corrupt frame: discard without ack; the sender will time out *)
    det_event t;
    recv t
  end
  else if f.seq < t.expected then begin
    (* duplicate (or retransmit after a lost ack): re-ack, discard *)
    det_event t;
    link_send_ack t f.seq;
    recv t
  end
  else begin
    (* in stop-and-wait, seq > expected means the sender gave up on an
       earlier frame; resync so the stream keeps flowing *)
    t.expected <- f.seq + 1;
    link_send_ack t f.seq;
    if f.last then None else Some (f.idx, f.v)
  end
