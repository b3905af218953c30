(** The full PSC protocol (Fenske et al. CCS'17, with the paper's TS
    coordinator), run in process: data collectors maintain oblivious
    tables of encrypted bits; computation parties add binomial noise,
    shuffle, rerandomize and jointly decrypt; the output is |union of
    the DCs' item sets| plus known binomial noise, corrected for hash
    collisions.

    This module is a driver. {!create} spawns the {!Party} set — the
    same CPs, DCs and TS that {!Node} hosts on the bus — on an
    in-memory FIFO of typed {!Wire} messages, never encoded, and
    delivers them until none are left. What stays here is the
    simulator's ground truth, which no protocol party may see. *)

include module type of struct
  include Round
end
(** The round's config and result types, shared with the parties. *)

type t

val create : config -> num_dcs:int -> seed:int -> t
(** Spawn the parties and run the key exchange: the TS checks the CPs'
    key proofs ([psc-key] ledger rows) and the DCs build their tables. *)

val insert : t -> dc:int -> string -> unit
(** Record an item at a data collector (e.g. a client IP at a guard). *)

val true_union_size : t -> int
(** Simulator ground truth: the exact cardinality of the union of all
    DCs' item sets (not available to any real protocol party). *)

val inserted_slots : t -> dc:int -> int
(** Diagnostic: occupied-slot count a DC would have if decrypted alone
    (computed from plaintext knowledge in the simulator; not part of
    the protocol). *)

val run : t -> result
(** Collect every DC's table, run the aggregation cascade and return
    the cardinality estimate, inside a [psc.run] ledger phase. Callable
    once. *)
