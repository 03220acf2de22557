(** Domain-parallel driver for a {!Codesign_sim.Partition} plan: one
    OCaml domain per partition, one barrier round per
    [Partition.next_bound].

    The coordinator domain drains the mailboxes and publishes each
    round's safe bound; every partition then dispatches its own wheel up
    to the bound on its own domain (partition 0 on the coordinator).
    Partitions share no mutable simulation state within a round — all
    cross-partition traffic travels through latency-channel mailboxes
    keyed by (lane, send sequence) — so the dispatch order, statistics
    and traces are byte-identical to {!Codesign_sim.Partition.run_serial}
    and to the single-wheel serial kernel, regardless of domain
    scheduling.

    Worker kernel-counter deltas are folded back into the calling
    domain with {!Codesign_sim.Kernel.merge_domain_totals} (the
    [Domain_pool] discipline), so measurement layers see
    partition-count-independent totals.

    A plan with one partition short-circuits to [run_serial] without
    spawning domains. *)

val run :
  ?until:int ->
  ?expect_quiescent:bool ->
  Codesign_sim.Partition.t ->
  Codesign_sim.Kernel.stats
(** Run the LBTS loop to completion (or [until]); same optional
    arguments and {!Codesign_sim.Kernel.Deadlock} behaviour as
    [Kernel.run], applied collectively across partitions.  An exception
    raised inside any partition's processes is re-raised here after all
    domains are joined. *)
