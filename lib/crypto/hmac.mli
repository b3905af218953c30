(** HMAC-SHA256 (RFC 2104). *)

type keyed
(** Precomputed key state: the SHA-256 midstates after the ipad/opad key
    blocks. A [keyed] halves the per-message compression count, which
    matters for HMAC-DRBG where each key serves several calls.

    A [keyed] also carries the scratch its MACs are computed in, so it
    has one owner: {!mac_into} and {!rekey} on the same [keyed] must not
    run concurrently, from two domains or otherwise. *)

val keyed : string -> keyed

val rekey : keyed -> Bytes.t -> int -> int -> unit
(** [rekey k key off len] replaces the key of [k] in place with the
    [len] bytes of [key] from [off] ([len] at most 64, the block size).
    Raises [Invalid_argument] otherwise. *)

val mac_into : keyed -> Bytes.t -> int -> int -> Bytes.t -> int -> unit
(** [mac_into k msg off len out out_off] writes the 32-byte MAC of the
    [len] bytes of [msg] from [off] into [out] at [out_off], starting
    from the cached midstates and allocating nothing. The message is
    fully absorbed before [out] is written, so the two may overlap. *)

val sha256 : key:string -> string -> string
(** [sha256 ~key msg] is the 32-byte raw MAC. *)

val hex : key:string -> string -> string
