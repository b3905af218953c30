(** A PSC round's configuration and published result, shared by the
    parties ({!Party}), the wire format ({!Wire}) and both drivers
    ({!Protocol} in process, {!Node} on the bus). {!Protocol}
    re-exports everything here. *)

type tamper = {
  tampered_cp : int;
  action : [ `Shuffle_swap | `Noise_nonbit ];
}
(** Fault injection: make one CP misbehave (substitute a ciphertext
    mid-shuffle, or inject a non-bit "noise" slot with a forged proof)
    so tests can check the proofs identify the culprit. *)

type config = {
  table_size : int;
  num_cps : int;
  noise_flips_per_cp : int;
  proof_rounds : int option;
      (** shuffle-proof soundness rounds; [None] disables proofs for
          large throughput runs (tests keep them on) *)
  verify : bool;  (** verify noise, shuffle and decryption proofs *)
  confidence : float;
  tamper : tamper option;
  dp : Dp.Mechanism.params option;
      (** the (ε,δ) the configured noise was calibrated for; recorded
          as a budget grant + draw in the run ledger when present *)
}

val config :
  ?num_cps:int -> ?noise_flips_per_cp:int -> ?proof_rounds:int option ->
  ?verify:bool -> ?confidence:float -> ?tamper:tamper -> ?dp:Dp.Mechanism.params ->
  table_size:int -> unit -> config

val flips_for_params : Dp.Mechanism.params -> sensitivity:float -> num_cps:int -> int
(** Per-CP flips so the total binomial noise gives (ε,δ)-DP. *)

type result = {
  raw_nonzero : int;       (** decrypted non-identity slots *)
  total_flips : int;
  estimate : float;        (** collision- and noise-corrected cardinality *)
  ci : Stats.Ci.t;         (** 95% CI on the true cardinality *)
  proofs_ok : bool;        (** all noise/shuffle/decryption proofs verified *)
  culprits : int list;     (** CPs whose proofs failed, for blame/abort *)
}

val estimate_of :
  table_size:int -> confidence:float -> raw_nonzero:int -> total_flips:int ->
  float * Stats.Ci.t
(** The estimator alone: noise-mean subtraction, occupancy-bias
    inversion and the exact interval for a decrypted non-identity
    count. *)

val round_key : seed:int -> string
(** The round's item-hashing key, shared by every DC (and by the
    simulator's ground-truth slot counts). *)
