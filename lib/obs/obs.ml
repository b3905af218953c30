(* Telemetry subsystem: a process-wide metrics registry, nested tracing
   spans, an append-only audit ledger, exporters, and the JSON codec
   they all write and read through. Everything is off by default;
   recording entry points check one global flag, so instrumented hot
   paths cost a load and a branch when telemetry is disabled and leave
   no residue. *)

module Metrics = Metrics
module Trace = Trace
module Ledger = Ledger
module Export = Export
module Json = Json

let enabled = Control.enabled
let set_enabled = Control.set_enabled
let with_enabled = Control.with_enabled

(* Per-task recording scopes for the domain pool: a worker brackets
   each chunk in [scope_begin]/[scope_end] so its recordings land in
   domain-local buffers, and the orchestrating domain replays the
   detached buffers in task index order with [merge]. Chunks are
   contiguous and index-ordered, so the merged metrics/spans/ledger are
   identical to a sequential run (timing fields aside). lib/parallel is
   the only intended caller. *)
module Task = struct
  type buf = { m : Metrics.scope; t : Trace.scope; l : Ledger.scope }

  let scope_begin () =
    Metrics.scope_begin ();
    Trace.scope_begin ();
    Ledger.scope_begin ()

  let scope_end () =
    { m = Metrics.scope_end (); t = Trace.scope_end (); l = Ledger.scope_end () }

  let merge b =
    Metrics.scope_merge b.m;
    Trace.scope_merge b.t;
    Ledger.scope_merge b.l
end

let reset () =
  Metrics.reset ();
  Trace.reset ();
  Ledger.reset ()
