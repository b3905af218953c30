(** Exporters for the telemetry subsystem. All output is deterministic
    for a given registry / span-buffer state. *)

val prometheus : Metrics.sample list -> string
(** Prometheus text exposition: [# TYPE] lines plus one sample line per
    counter/gauge, and [_bucket]/[_sum]/[_count] lines per histogram. *)

val trace_jsonl : Trace.span list -> string
(** One JSON object per line:
    [{"id":..,"parent":..,"depth":..,"name":..,"start_s":..,
      "duration_s":..,"alloc_bytes":..,"attrs":{..}}]. *)

val snapshot_json : Metrics.sample list -> string
(** Flat JSON object (counters/gauges as numbers, histograms as
    [{"sum":..,"count":..}]) — used by the bench harness. Both JSON
    exporters write through {!Json} with 9 significant digits. *)

val summary : Metrics.sample list -> string
(** Human-readable end-of-run table of every metric. Timings are not
    repeated here: the run's one timing table is {!Ledger.summary}'s
    phase table. *)

val write_file : string -> string -> unit
