(** A reliable message pipe over a faulty simulation channel: the
    token-level (send/receive/wait) rung of Fig. 3 under fault
    injection, and the recovery mechanism that rung answers with.

    The underlying medium may {b drop}, {b duplicate} or {b corrupt}
    any token (data frames and acknowledgements both ride it).  On top
    sits a stop-and-wait ARQ: every frame carries a sequence number and
    an FNV-1a tag ({!Codesign_obs.Checksum}); the receiver discards
    corrupt frames (no ack — the sender times out), re-acks duplicates,
    and delivers in order; the sender retransmits on ack timeout up to a
    bounded retry budget.

    Corrupt frames and duplicates are detected at the receiver, dropped
    frames and lost acks at the sender's timeout — each detection is
    reported to the shared {!Injector}, so token-level detection latency
    is measured the same way as the bus mechanisms'. *)

type t

val create : Codesign_sim.Kernel.t -> Injector.t -> t
(** A fresh link.  The ARQ allows 8 retransmissions per data frame and
    20 for the end-of-stream frame (losing END leaves the receiver
    blocked, so {!close} tries harder), times an ack out after 40
    cycles while polling every 4, and the medium delays each data frame
    by 2.  Retransmission loops are {!Codesign_resil.Policy} retries
    with [No_backoff] — the ack timeout is the pacing. *)

val send : t -> idx:int -> int -> bool
(** Send one [(idx, value)] item reliably; blocks (inside a kernel
    process) until acknowledged or the retry budget is exhausted.
    [false] means the item was given up on — a lost item. *)

val close : t -> unit
(** Reliably deliver the end-of-stream marker (a generous retry budget
    of its own), so {!recv} is guaranteed to return [None]. *)

val recv : t -> (int * int) option
(** Blocking receive of the next in-order item; [None] on end of
    stream.  Must run inside a kernel process. *)

val retransmissions : t -> int

(** {2 Snapshot / restore}

    Captures both link channels (buffered frames + counters; blocked
    endpoints are abandoned on restore, per
    {!Codesign_sim.Channel.restore}) and the ARQ state (sequence
    numbers, retransmission count).  Because sequence numbering
    continues from wherever the snapshot left it, a forked timeline's
    frames stay in protocol with a freshly re-spawned receiver.  The
    shared {!Injector} is not captured. *)

type snap

val snapshot : t -> snap
val restore : t -> snap -> unit
