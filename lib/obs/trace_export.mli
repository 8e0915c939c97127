(** Serializers for a recorded {!Trace}.

    Two machine formats plus a human summary:

    - {!jsonl}: one JSON object per line.  The first line is a header
      carrying [schema]/[version] (see {!schema} and {!version}) plus
      run metadata; each following line is one event.  This is the
      stable interchange format — {!Trace_report} and [ddsim report]
      consume it, and the [version] field is how future schema changes
      stay detectable.
    - {!chrome}: a Chrome trace-event JSON document (one object with a
      [traceEvents] array) loadable in Perfetto / [chrome://tracing].
      Spans become "X" complete events, instants become "i" events;
      timestamps are microseconds as the format requires.
    - {!summary}: per-kind counts and total/mean durations for a quick
      terminal read. *)

val schema : string
(** ["ddsim-trace"]. *)

val version : int
(** Current JSONL schema version (3): v2 plus the [window] kind, whose
    lines also carry [heap_words] and [table_bytes].
    {!Trace_report.parse_jsonl} accepts this version only. *)

val kind_to_string : Trace.kind -> string
val kind_of_string : string -> Trace.kind option

val jsonl : ?meta:(string * string) list -> Trace.t -> string
(** [meta] lands in the header line under ["meta"] (e.g. algorithm,
    qubit count, strategy, and the run's [wall_seconds], against which
    [ddsim explain] measures window coverage). *)

val chrome : ?meta:(string * string) list -> Trace.t -> string

val summary : Trace.t -> string

val write_file : string -> string -> unit
(** [write_file path contents] — plain [Out_channel] convenience. *)
