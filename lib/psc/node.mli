(** The bus transport for the PSC parties: {!host} places a {!Party}
    on {!Bus.Sched}, encoding what it sends ({!Wire.post}) and decoding
    what is delivered to it ({!Wire.decode}). The parties are the ones
    {!Protocol.run} drives in process, so a bus round at the same
    config, seed and inserts publishes the same bytes; only the
    transport differs.

    A misbehaving CP (a [config.tamper]) is detected as in process:
    the TS rejects its proof, records the failed ledger proof and lists
    the CP as a culprit. *)

val host :
  Bus.Sched.t -> epoch:int -> Bus.Party.t -> (Party.send -> 'a Party.t) -> 'a
(** [host sched ~epoch addr spawn] spawns the party at [addr], sending
    in [epoch], registers its handler, and returns its state. The
    handler claims every message with a PSC kind that decodes. *)

val dc_state : Party.dc -> string
(** Checkpoint blob: the table's encrypted slots. *)

val dc_load : Party.dc -> id:int -> string -> (unit, Bus.Codec.error) result
(** Restore the table slots from a checkpoint blob; records a
    [bus-restore-dc] ledger proof for DC [id]. *)
