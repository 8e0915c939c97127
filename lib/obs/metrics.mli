(** Unified registry of named counters and gauges.

    The repository grew three disjoint families of counters — {!Sim_stats}
    (engine-level), {!Dd.Compute_table.stats} (per-table hit/miss/eviction)
    and {!Dd.Context.gc_stats} (collections and pauses).  This module puts
    them behind one vocabulary: instruments are registered by name and a
    {!snapshot} freezes every instrument into a comparable value (see
    {!Dd_sim.Telemetry} for the bridge that populates a registry from a
    live engine). *)

type t
(** A registry. *)

type counter
type gauge

val create : unit -> t

val counter : t -> string -> counter
(** Register (or retrieve) the counter [name].  Raises [Invalid_argument]
    if [name] is already registered as a different instrument kind. *)

val gauge : t -> string -> gauge

val add : counter -> int -> unit
val count : counter -> int
val set : gauge -> float -> unit

val bucket_exponent : float -> int
(** The log2 bucket a magnitude lands in: the [e] in [-32, 31] with
    [2^(e-1) <= v < 2^e] (non-positive values land in -32, out-of-range
    exponents clamp) — the resolution of the edge-weight histograms in
    {!Dd_profile} and the DOT renderer. *)

(** {1 Snapshots} *)

type value = Count of int | Value of float

type snapshot = (string * value) list
(** Sorted by name. *)

val snapshot : t -> snapshot
val find : snapshot -> string -> value option
val pp : Format.formatter -> snapshot -> unit

val to_json : snapshot -> string
(** One JSON object keyed by instrument name: counters as integers,
    gauges as numbers — what [ddsim run --stats-json] writes. *)
