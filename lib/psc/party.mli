(** The PSC parties, written once: computation parties (CPs), data
    collectors (DCs) and the tally server (TS) that coordinates the
    round. A party sends typed {!Wire.msg}s through the [send] it was
    spawned with and reacts to delivered ones through its [handle];
    it never calls another party. The transport is the caller's:
    {!Protocol} delivers the values in process through a FIFO, and
    {!Node} hosts the same parties on {!Bus.Sched}, encoding every
    message.

    The round: CPs post their keys at spawn; once all are in, the TS
    verifies them and sends the joint key to every DC and CP, and the
    DCs build their oblivious tables. On {!ts_request_tables} the DCs
    submit their tables; {!ts_start_aggregate} asks every CP for noise,
    and the rest is a message-driven cascade — the TS combines the
    tables and checks the noise bit proofs, each CP in turn shuffles
    (proven) and rerandomizes, and the CPs' verifiable partial
    decryptions end in the published estimate ({!ts_result}).

    Each CP draws from its own DRBG stream in one fixed order — keygen,
    key proof, noise, shuffle, rerandomize, decrypt — so a round's
    result depends only on (config, seed, inserts), never on the
    transport or its delivery order. Every proof is checked in the TS,
    in CP id order; a failed proof is recorded in the ledger and names
    the CP in the result's culprits. *)

type send = Bus.Party.t -> Wire.msg -> unit
(** [send dst msg], with the sender fixed by the party. *)

type 'a t = {
  state : 'a;
  handle : Bus.Party.t -> Wire.msg -> unit;
      (** [handle src msg]; raises [Invalid_argument] on a message the
          party does not expect at this point of the round *)
}

val cp : Round.config -> seed:int -> id:int -> send -> unit t
(** Create the CP and send its key with a proof of knowledge to the
    TS. A CP named by [config.tamper] misbehaves as configured, drawing
    from its own ["psc-tamper"] stream. Phases: [psc.shuffle] and
    [psc.rerandomize] per request. *)

(** {2 Data collector} *)

type dc

val dc : Round.config -> seed:int -> id:int -> send -> dc t
(** The table is built when the joint key arrives. *)

val dc_insert : dc -> string -> unit
(** Local observation; raises [Invalid_argument] before the joint key. *)

val dc_table : dc -> Table.t
(** Raises [Invalid_argument] before the joint key. *)

(** {2 Tally server} *)

type ts

val ts : Round.config -> num_dcs:int -> send -> ts t
(** [num_dcs] DCs receive the joint key. *)

val ts_request_tables : ts -> dcs:int list -> unit
(** Ask each listed DC for its table (a crashed DC never answers).
    Deliver the replies before {!ts_start_aggregate}. *)

val ts_start_aggregate : ts -> unit
(** Record the [dp] grant and draw, if configured, and ask every CP for
    noise over the tables that arrived. Phases, as the cascade reaches
    them: [psc.combine], [psc.noise] (bit-proof checks),
    [psc.decrypt] (share checks and combination), [psc.estimate]. *)

val ts_result : ts -> Round.result option
(** The published estimate, once the cascade has finished. *)
