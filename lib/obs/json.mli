(** The repo's one JSON codec: every JSON artifact (run ledgers, trace
    spans, metric snapshots, torlint JSON/SARIF, BENCH files) is written
    through {!quote} or {!to_string} and read back through {!of_string}.

    Strings are byte strings: the writer escapes ['"'], ['\\'] and bytes
    below 0x20 and passes every other byte through unchanged, so
    [of_string (to_string v) = Ok v] for any byte content. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** fields in document order, duplicates kept *)

(** {2 Writing} *)

val quote : string -> string
(** A JSON string literal, quotes included: [\n], [\r], [\t] and the
    other bytes below 0x20 as [\u00XX]; bytes ≥ 0x80 verbatim. *)

val float : float -> string
(** Shortest decimal that reads back to the same float (integers below
    1e15 without a fraction). Finite values only. *)

val to_string : ?float:(float -> string) -> t -> string
(** Compact form: no whitespace between tokens. [float] prints numbers
    (default {!float}); exporters with a fixed display precision pass
    their own. *)

(** {2 Reading} *)

val of_string : string -> (t, string) result
(** Parse one JSON document (surrounding whitespace allowed). Total:
    malformed input of any kind is an [Error] naming the byte offset,
    never an exception. [\uXXXX] escapes decode to UTF-8 (surrogate
    pairs combined); raw bytes inside strings are kept as they are. *)

val member : string -> t -> t option
(** First field named [key] of an object; [None] for absent fields and
    for non-objects. *)
