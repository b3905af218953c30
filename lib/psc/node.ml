let host sched ~epoch self spawn =
  let party = spawn (fun dst m -> Wire.post sched ~epoch ~src:self ~dst m) in
  Bus.Sched.register sched self (fun env ->
      match Wire.decode ~kind:env.Bus.Envelope.kind env.Bus.Envelope.body with
      | Ok m ->
          party.Party.handle env.Bus.Envelope.src m;
          true
      | Error _ -> false);
  party.Party.state

let dc_state dc = Wire.encode (Wire.Table_submit (Table.slots (Party.dc_table dc)))

let dc_load dc ~id blob =
  match Wire.decode ~kind:"psc.table" blob with
  | Ok (Wire.Table_submit slots) ->
      let ok =
        match Table.load_slots (Party.dc_table dc) slots with
        | () -> true
        | exception Invalid_argument _ -> false
      in
      Obs.Ledger.proof ~kind:"bus-restore-dc" ~party:id ~ok ~batch:(Array.length slots);
      Ok ()
  | Ok _ -> Error (Bus.Codec.Invalid "not a table blob")
  | Error e -> Error e
