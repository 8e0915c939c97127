(** Bridge from a live engine to the unified {!Obs.Metrics} vocabulary.

    {!snapshot} freezes every counter family the engine carries —
    {!Sim_stats} aggregates, per-compute-table hit/miss/eviction counters
    ({!Dd.Context.table_stats}) and DD garbage-collection statistics
    ({!Dd.Context.gc_stats}) — into one sorted {!Obs.Metrics.snapshot}. *)

val populate : Obs.Metrics.t -> Engine.t -> unit
(** Write the engine's current readings into a registry (instruments are
    registered on first use, so any registry works). *)

val snapshot : Engine.t -> Obs.Metrics.snapshot
(** [snapshot e] is [populate r e; Obs.Metrics.snapshot r] on a fresh
    registry. *)
