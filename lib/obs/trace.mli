(** Per-operation event timeline of a simulation run.

    The paper's argument (Section III, Figs. 2-3) is about how DD sizes
    evolve *over the course* of a simulation; end-of-run aggregates cannot
    show that.  A trace records one typed event per interesting operation
    — gate applications, matrix-vector and matrix-matrix multiplications,
    combination-window flushes, garbage collections, fallbacks,
    renormalizations, checkpoints, measurements and strategy windows —
    each stamped with a
    monotonic timestamp ({!Clock}), the current gate index, DD node
    counts, and the compute-table hit/miss traffic the operation caused.

    Tracing is disabled by default and must cost nothing when off: the
    shared {!null} trace answers [false] to {!is_on}, and every
    instrumentation site is expected to check [is_on] before computing any
    event argument, so the disabled path is a single load-and-branch with
    zero allocation (the test suite asserts this).

    Events are appended to a growable buffer bounded by [max_events];
    events beyond the bound are counted in {!dropped} rather than grown
    into (a run-away trace must not OOM the simulation it observes). *)

type kind =
  | Gate_applied  (** one circuit gate absorbed (instant, per gate) *)
  | Window_combined
      (** a combination window of >= 2 gates flushed onto the state *)
  | Mat_vec  (** one matrix-vector multiplication (span) *)
  | Mat_mat  (** one matrix-matrix multiplication (span) *)
  | Gc  (** one {!Dd.Context.collect} (span) *)
  | Fallback  (** an over-budget window degraded to sequential *)
  | Renormalize  (** norm-drift correction applied *)
  | Checkpoint  (** a resumable checkpoint was written *)
  | Measure  (** a qubit was measured and the state collapsed *)
  | Audit  (** one invariant-auditor pass over the live DDs (span) *)
  | Reorder  (** one variable-reordering (sifting) pass on the state DD (span) *)
  | Window
      (** one strategy window of the engine's run loop, open to close (span): a
          sequential stretch, a combination window, a degraded window or
          a repeat block.  Its kernel spans ([Mat_vec] / [Mat_mat])
          precede it in the buffer; {!Ledger} folds them into per-window
          costs.  [gate_index] is the last gate covered, [state_nodes]
          the state size at close, [detail] the window header
          ({!Ledger.window_detail}), and the two gauges are set. *)

type event = {
  kind : kind;
  t : float;  (** seconds since the trace epoch; span start time *)
  dur : float;  (** span duration in seconds; [0.] for instants *)
  gate_index : int;  (** flattened gate index; [-1] when not applicable *)
  state_nodes : int;  (** state-DD nodes after the event; [-1] unknown *)
  matrix_nodes : int;  (** matrix-DD nodes involved; [-1] unknown *)
  hits : int;  (** compute-table hits the operation scored *)
  misses : int;  (** compute-table misses the operation scored *)
  detail : string;  (** free-form: gate name, window size, ... *)
  heap_words : int;
      (** [Gc.quick_stat] live words at a [Window] close; [0] otherwise *)
  table_bytes : int;
      (** estimated DD-table residency bytes at a [Window] close; [0]
          otherwise *)
}

type t

val null : t
(** The shared disabled trace: {!is_on} is [false], emissions are
    dropped-without-counting, {!set_enabled} on it is a no-op.  Engines
    and contexts hold [null] until a real trace is attached. *)

val create : ?max_events:int -> unit -> t
(** A fresh enabled trace whose epoch is [Clock.now ()] at creation.
    [max_events] (default [2^20]) bounds the buffer; excess events are
    counted in {!dropped}. *)

val is_on : t -> bool
val set_enabled : t -> bool -> unit

val now : t -> float
(** Seconds since the trace epoch (monotone). *)

val rel : t -> float -> float
(** [rel t abs] converts an absolute {!Clock.now} reading to trace time. *)

val set_gate : t -> int -> unit
(** Record the engine's current gate cursor; events emitted from layers
    that do not know the gate index (the DD kernels) stamp this value. *)

val gate : t -> int

val instant :
  t ->
  kind ->
  gate:int ->
  state_nodes:int ->
  matrix_nodes:int ->
  detail:string ->
  unit
(** Append a zero-duration event stamped [now t].  First action is the
    {!is_on} check, and no argument requires allocation, so a disabled
    call allocates nothing. *)

val span :
  t ->
  kind ->
  t0:float ->
  gate:int ->
  state_nodes:int ->
  matrix_nodes:int ->
  hits:int ->
  misses:int ->
  detail:string ->
  unit
(** Append an event covering [t0 .. now t] (trace time).  Emitted at span
    end, so buffer order is completion order and end times are monotone. *)

val window :
  t ->
  t0:float ->
  gate_end:int ->
  state_nodes:int ->
  heap_words:int ->
  table_bytes:int ->
  detail:string ->
  unit
(** Append a [Window] span covering [t0 .. now t] whose last gate is
    [gate_end - 1].  Like {!span}, the first action is the {!is_on}
    check and a disabled call allocates nothing. *)

val length : t -> int
val dropped : t -> int
val events : t -> event array
(** Snapshot copy of the recorded events, in emission order. *)

val iter : (event -> unit) -> t -> unit
val clear : t -> unit
(** Drop recorded events and the dropped count; the epoch is kept. *)
