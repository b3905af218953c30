(** Random-linear-combination batch verification: the weight stream and
    outcome vocabulary shared by the batched verifiers in {!Sigma},
    {!Bit_proof} and {!Shuffle}.

    N verification equations fold into one group equation with random
    weights in [1, q); a batch that contains any invalid proof passes
    the folded check with probability ~1/q. Weights are drawn from a
    dedicated verifier DRBG seeded by a domain-separated hash of the
    statement+proof transcript, so they bind the prover's whole message
    (Fiat–Shamir) while consuming nothing from any party DRBG — the
    protocol's draw order and deploy-mode byte identity are untouched.
    Soundness argument and cutover policy: DESIGN.md §3c. *)

type outcome =
  | Accepted
  | Rejected of int list
      (** indices of the proofs that fail individually — produced by
          the single-proof fallback a failed batch re-runs, so audit
          and blame paths can name the offending proof *)

val weights :
  context:string -> transcript:Sha256.ctx -> lanes:int -> int -> Group.exp array array
(** [weights ~context ~transcript ~lanes n] is [lanes] weight vectors
    of length [n], each entry uniform in [1, q), all drawn from one
    verifier DRBG seeded by the digest of [transcript] (which this
    call finalizes) under the [context] domain separator. Callers
    absorb the statement and proofs into a fresh {!Sha256.init}
    context with {!Group.absorb_elt} and {!Group.absorb_exp} — not
    into {!Group.transcript}, which every challenge on the domain
    reuses. One folded equation system consumes one lane. *)

val dot : Group.exp array -> Group.exp array -> Group.exp
(** Weighted exponent sum mod q — the scalar side of a folded
    equation. Raises [Invalid_argument] on a length mismatch. *)

val rejected_indices : bool array -> int list
(** Indices holding [false], ascending. *)

val outcome_of_singles : bool array -> outcome
(** {!Accepted} when every single-proof verdict is [true], otherwise
    {!Rejected} with the failing indices. *)
