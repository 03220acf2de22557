(** Domain-parallel driver for a {!Codesign_sim.Partition} plan: one
    barrier round per [Partition.next_bound], dispatched over
    [d = min partitions (Domain.recommended_domain_count ())] OCaml
    domains.  Partition [i] runs on domain [i mod d]; domain 0 is the
    calling domain, which also drains the mailboxes and publishes each
    round's safe bound through an atomic round counter.  Each domain
    dispatches its partitions in index order, and the round ends when
    an atomic count of pending helper domains reaches zero.
    Partitions share no mutable simulation state within a round — all
    cross-partition traffic travels through latency-channel mailboxes
    keyed by (lane, send sequence) — so the dispatch order, statistics
    and traces are byte-identical to {!Codesign_sim.Partition.run_serial}
    and to the single-wheel serial kernel, regardless of [d] and of
    domain scheduling.

    A round is short (a few dozen events per partition at small
    lookahead), so a waiting domain spins a bounded number of
    [Domain.cpu_relax] iterations before it parks on a mutex/condition
    pair, and a publisher signals only when some domain is parked.
    Spinning pays only while each domain has a core to itself, which is
    why [d] is capped at the cores: on a 2-core host, the 4-partition
    3x4 bench mesh took a median 11.0-11.3 ms with one spinning domain
    per partition and 2.2-2.3 ms with the cap.

    Worker kernel-counter deltas are folded back into the calling
    domain with {!Codesign_sim.Kernel.merge_domain_totals} (the
    [Domain_pool] discipline), so measurement layers see
    partition-count-independent totals.

    When [d = 1] (one partition, or one core) the plan runs through
    [run_serial] without spawning domains. *)

val run :
  ?bound:Codesign_sim.Kernel.bound ->
  Codesign_sim.Partition.t ->
  Codesign_sim.Kernel.stats
(** Run the LBTS loop up to [bound] (default
    {!Codesign_sim.Kernel.Drain}), with {!Codesign_sim.Kernel.run}'s
    meaning of each bound applied collectively across partitions
    ({!Codesign_sim.Partition.finish}).  An exception raised inside any
    partition's processes is re-raised here after all domains are
    joined. *)
