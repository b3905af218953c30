(** Machine-readable torlint output: JSON and SARIF 2.1.0 documents,
    stable fingerprints, and the committed-baseline format that lets CI
    gate on new findings only. Documents are written through
    {!Obs.Json}, which also reads them back. *)

val fingerprint : occurrence:int -> Diagnostic.t -> string
(** Stable identity of a finding: a hex digest of (path, rule id,
    message, occurrence index). Line numbers are deliberately excluded
    so fingerprints survive unrelated edits; messages must not embed
    positions. *)

val with_fingerprints : Diagnostic.t list -> (Diagnostic.t * string) list
(** Pair each diagnostic with its fingerprint, numbering identical
    (path, rule, message) findings by occurrence. *)

val json : (Diagnostic.t * string) list -> string
(** [{"tool":"torlint","findings":[...]}] *)

val sarif : rules:(string * string) list -> (Diagnostic.t * string) list -> string
(** A minimal SARIF 2.1.0 log. [rules] is [(id, doc)] for the tool
    driver's rule table. *)

val baseline_to_string : (Diagnostic.t * string) list -> string
(** One fingerprint per line with a trailing comment naming the rule
    and path; [#] comments and blank lines are ignored on read. *)

val baseline_of_string : string -> string list
(** Fingerprints accepted by a committed baseline file. *)
