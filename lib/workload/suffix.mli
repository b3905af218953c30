(** Miniature public-suffix list (stand-in for publicsuffix.org) and
    registered-domain extraction, used for the SLD measurements (§4.3).

    The exported functions are index-scanning implementations with a
    bounded, domain-local memo on [registered_domain]; the [*_ref]
    variants are the original list-based versions, kept as the
    executable specification that the property tests compare against. *)

val public_suffix : string -> string option
(** The longest known public suffix of a hostname, or None. *)

val registered_domain : string -> string option
(** The registered domain ("SLD" in the paper's terms): one label more
    than the public suffix. None for bare suffixes or unknown TLDs.
    Memoized per domain (bounded). *)

val registered_domain_uncached : string -> string option
(** {!registered_domain} without the memo, for callers that classify
    each distinct host once — a trace segment's interned host table.
    There a memo never hits and only churns: every insert past its
    bound is garbage the major GC must collect. *)

val top_level_domain : string -> string option
(** The final label, lowercased. *)

(** {2 Reference implementations} — list-based originals; equal to the
    exported functions on every input (property-tested). For tests. *)

val public_suffix_ref : string -> string option
val registered_domain_ref : string -> string option
val top_level_domain_ref : string -> string option

val two_label_suffixes : string list
(** The miniature public-suffix list itself (for test generators). *)

val one_label_suffixes : string list
