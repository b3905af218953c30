(** SHA-256 (FIPS 180-4), implemented from scratch: the host container has
    no OCaml crypto packages. Used for Fiat–Shamir challenges, item
    hashing in PSC, and HMAC-DRBG.

    A context absorbs input and finalizes without allocating: callers
    on hot paths keep one context, {!reset} it per message, and
    {!finalize_into} a buffer they own. *)

type ctx

val init : unit -> ctx

val reset : ctx -> unit
(** Return the context to its initial state, ready for a new message. *)

val blit : src:ctx -> dst:ctx -> unit
(** Overwrite [dst] with the state of [src]; the two stay independent
    afterwards. HMAC restores its cached key midstates this way. *)

val update : ctx -> string -> unit

val update_bytes : ctx -> Bytes.t -> int -> int -> unit
(** [update_bytes ctx b off len] absorbs [len] bytes of [b] from
    [off]. Raises [Invalid_argument] on an out-of-range slice. *)

val update_be32 : ctx -> int -> unit
(** Absorb the low 32 bits of an int as four big-endian bytes — the
    canonical encoding of group elements and exponents in transcripts. *)

val finalize_into : ctx -> Bytes.t -> int -> unit
(** Write the 32-byte raw digest at the given offset. The context must
    not be updated or finalized again until {!reset}. *)

val finalize : ctx -> string
(** {!finalize_into} a fresh 32-byte string. *)

val digest : string -> string
(** One-shot 32-byte raw digest. *)

val hex : string -> string
(** One-shot digest as a lowercase hex string. *)

val to_hex : string -> string
(** Hex-encode arbitrary bytes. *)
