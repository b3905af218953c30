(* The deploy driver owns everything the parties must not: the
   scenario interpretation (when to crash whom, which CP tampers, how
   many DCs exist this epoch) and the synthetic workload. Parties only
   ever see messages; the driver only ever calls spawn/ingest/publish
   entry points and the scheduler. The PSC parties are the ones
   Psc.Protocol drives in process, placed on the bus by Psc.Node. *)

type config = {
  seed : int;
  epochs : int;
  num_dcs : int;
  num_sks : int;
  num_cps : int;
  table_size : int;
  noise_flips_per_cp : int;
  proof_rounds : int;
  events_per_epoch : int;
  items_per_epoch : int;
}

let default_config ?(seed = 1) ?(epochs = 1) () =
  {
    seed;
    epochs;
    num_dcs = 3;
    num_sks = 2;
    num_cps = 3;
    table_size = 64;
    noise_flips_per_cp = 8;
    proof_rounds = 4;
    events_per_epoch = 60;
    items_per_epoch = 24;
  }

type publish = {
  epoch : int;
  pc : Privcount.Ts.result list;
  pc_bytes : string;
  psc : Psc.Protocol.result;
  psc_bytes : string;
  missing_dcs : int list;
}

type outcome = {
  scenario : string;
  publishes : publish list;
  digest : string;
  detected : bool;
  culprits : int list;
  restarts : int;
  stats : Bus.Sched.stats list;
  order_digests : string list;
  last_checkpoint : Bus.Checkpoint.t option;
}

(* Explicit left-to-right tabulation: spawning posts messages, so the
   order side effects happen in must not depend on List.init/Array.init
   evaluation order (unspecified). *)
let tabulate n f =
  let rec go i = if i = n then [] else let x = f i in x :: go (i + 1) in
  go 0

let epoch_seed cfg epoch = cfg.seed + (100003 * epoch)

let counter_specs =
  [
    Privcount.Counter.spec ~name:"exit.bytes" ~sensitivity:8.0;
    Privcount.Counter.spec ~name:"exit.circuits" ~sensitivity:1.0;
    Privcount.Counter.spec ~name:"exit.streams" ~sensitivity:2.0;
  ]

(* ------------------------------------------------------------------ *)
(* Synthetic workload: a pure function of (config, epoch, live DC
   count), so the bus run, the restarted run and the in-process
   reference all ingest the identical observation stream. *)

type workload = {
  pc_events : (int * string * int) array;  (* dc, counter, by *)
  psc_items : (int * string) array;  (* dc, item *)
}

let workload cfg ~epoch ~live =
  let rng = Prng.Rng.create (epoch_seed cfg epoch lxor 0x6465706c) in
  let names =
    Array.of_list
      (List.map (fun (s : Privcount.Counter.spec) -> s.name) counter_specs)
  in
  let pc_events = Array.make cfg.events_per_epoch (0, "", 0) in
  for i = 0 to cfg.events_per_epoch - 1 do
    let dc = Prng.Rng.below rng live in
    let name = names.(Prng.Rng.below rng (Array.length names)) in
    let by = 1 + Prng.Rng.below rng 3 in
    pc_events.(i) <- (dc, name, by)
  done;
  let psc_items = Array.make cfg.items_per_epoch (0, "") in
  for i = 0 to cfg.items_per_epoch - 1 do
    let dc = Prng.Rng.below rng live in
    (* item ids from a pool of 2x the insert count: collisions across
       DCs make the union genuinely smaller than the insert total *)
    let item =
      Printf.sprintf "client-%d-%d" epoch
        (Prng.Rng.below rng (2 * cfg.items_per_epoch))
    in
    psc_items.(i) <- (dc, item)
  done;
  { pc_events; psc_items }

(* ------------------------------------------------------------------ *)
(* Per-epoch party set *)

type parties = {
  sched : Bus.Sched.t;
  live : int;
  pc_ts : Privcount.Node.ts;
  pc_dcs : Privcount.Node.dc array;
  pc_sks : Privcount.Node.sk array;
  psc_ts : Psc.Party.ts;
  psc_dcs : Psc.Party.dc array;
}

let spawn_parties cfg (scenario : Bus.Scenario.t) ~epoch =
  let eseed = epoch_seed cfg epoch in
  let live = Bus.Scenario.dcs_at scenario ~base_dcs:cfg.num_dcs ~epoch in
  (match Bus.Scenario.malicious_cp scenario with
  | Some cp when cp < 0 || cp >= cfg.num_cps ->
      invalid_arg "Deploy: malicious CP index outside the deployment"
  | _ -> ());
  let sched = Bus.Sched.create ~record_order:true ~seed:eseed () in
  List.iter
    (fun (party, factor) -> Bus.Sched.set_delay sched party factor)
    (Bus.Scenario.slow scenario);
  let pc_cfg =
    {
      Privcount.Node.round = Privcount.Deployment.config ~num_sks:cfg.num_sks counter_specs;
      num_dcs = live;
      seed = eseed;
    }
  in
  (* the malicious CP substitutes a ciphertext after shuffling and
     keeps the honest proof *)
  let tamper =
    Option.map
      (fun cp -> { Psc.Protocol.tampered_cp = cp; action = `Shuffle_swap })
      (Bus.Scenario.malicious_cp scenario)
  in
  let psc_cfg =
    Psc.Protocol.config ~num_cps:cfg.num_cps ~noise_flips_per_cp:cfg.noise_flips_per_cp
      ~proof_rounds:(Some cfg.proof_rounds) ?tamper ~table_size:cfg.table_size ()
  in
  let pc_ts = Privcount.Node.spawn_ts sched ~epoch pc_cfg in
  let pc_sks =
    Array.of_list
      (tabulate cfg.num_sks (fun id -> Privcount.Node.spawn_sk sched ~epoch pc_cfg ~id))
  in
  let pc_dcs =
    Array.of_list
      (tabulate live (fun id -> Privcount.Node.spawn_dc sched ~epoch pc_cfg ~id))
  in
  let host addr spawn = Psc.Node.host sched ~epoch addr spawn in
  let psc_ts = host Bus.Party.Ts (Psc.Party.ts psc_cfg ~num_dcs:live) in
  for id = 0 to cfg.num_cps - 1 do
    host (Bus.Party.Cp id) (Psc.Party.cp psc_cfg ~seed:eseed ~id)
  done;
  let psc_dcs =
    Array.of_list
      (tabulate live (fun id -> host (Bus.Party.Dc id) (Psc.Party.dc psc_cfg ~seed:eseed ~id)))
  in
  { sched; live; pc_ts; pc_dcs; pc_sks; psc_ts; psc_dcs }

(* ------------------------------------------------------------------ *)
(* Checkpoint blobs: one entry per live party. A DC hosts both
   pipelines, so its blob is two length-prefixed sub-blobs. *)

let dc_blob p i =
  let w = Bus.Codec.W.create () in
  Bus.Codec.W.bytes w (Privcount.Node.dc_state p.pc_dcs.(i));
  Bus.Codec.W.bytes w (Psc.Node.dc_state p.psc_dcs.(i));
  Bus.Codec.W.contents w

let split_dc_blob blob =
  Bus.Codec.decode blob (fun r ->
      let pc = Bus.Codec.R.bytes r in
      let psc = Bus.Codec.R.bytes r in
      (pc, psc))

let checkpoint_of cfg (scenario : Bus.Scenario.t) p ~epoch =
  let dc_entries =
    List.concat
      (tabulate p.live (fun i ->
           if Bus.Sched.crashed p.sched (Bus.Party.Dc i) then []
           else [ { Bus.Checkpoint.party = Bus.Party.Dc i; state = dc_blob p i } ]))
  in
  let sk_entries =
    tabulate cfg.num_sks (fun i ->
        {
          Bus.Checkpoint.party = Bus.Party.Sk i;
          state = Privcount.Node.sk_state p.pc_sks.(i);
        })
  in
  {
    Bus.Checkpoint.seed = cfg.seed;
    scenario = scenario.Bus.Scenario.name;
    epoch;
    phase = "collect";
    entries = dc_entries @ sk_entries;
  }

(* ------------------------------------------------------------------ *)
(* Lifecycle hooks over a mutable current-epoch slot *)

type st = {
  cfg : config;
  scenario : Bus.Scenario.t;
  mutable cur : parties option;
  mutable epoch_stats : Bus.Sched.stats list;  (* reversed *)
  mutable epoch_orders : string list;  (* reversed *)
}

let cur st =
  match st.cur with
  | Some p -> p
  | None -> invalid_arg "Deploy: lifecycle hook before setup"

let setup st ~epoch =
  let p = spawn_parties st.cfg st.scenario ~epoch in
  (* drain the exchange: blinding rows to the SKs, CP keys to the TS,
     the joint key out, the DC tables built *)
  ignore (Bus.Sched.run p.sched : Bus.Sched.stats);
  st.cur <- Some p

let collect st ~epoch =
  let p = cur st in
  let wl = workload st.cfg ~epoch ~live:p.live in
  let crash = Bus.Scenario.crashed_dc st.scenario ~epoch in
  (match crash with
  | Some d when d < 0 || d >= p.live ->
      invalid_arg "Deploy: crashed DC index outside the deployment"
  | _ -> ());
  let ev_half = Array.length wl.pc_events / 2 in
  Array.iteri
    (fun i (dc, name, by) ->
      (match crash with
      | Some d when i = ev_half -> Bus.Sched.crash p.sched (Bus.Party.Dc d)
      | _ -> ());
      let dead =
        match crash with Some d -> i >= ev_half && dc = d | None -> false
      in
      if not dead then Privcount.Node.dc_increment p.pc_dcs.(dc) ~name ~by)
    wl.pc_events;
  let it_half = Array.length wl.psc_items / 2 in
  Array.iteri
    (fun i (dc, item) ->
      let dead =
        match crash with Some d -> i >= it_half && dc = d | None -> false
      in
      if not dead then Psc.Party.dc_insert p.psc_dcs.(dc) item)
    wl.psc_items

let aggregate st ~epoch =
  let p = cur st in
  let dcs = tabulate p.live Fun.id in
  Privcount.Node.ts_request_reports p.pc_ts ~epoch ~dcs;
  Psc.Party.ts_request_tables p.psc_ts ~dcs;
  ignore (Bus.Sched.run p.sched : Bus.Sched.stats);
  (* close with whatever arrived: missing DCs are excluded by the SKs
     (PrivCount dropout recovery) and absent from the PSC combine *)
  Privcount.Node.ts_close p.pc_ts ~epoch ~num_sks:st.cfg.num_sks;
  Psc.Party.ts_start_aggregate p.psc_ts;
  ignore (Bus.Sched.run p.sched : Bus.Sched.stats)

let publish st ~epoch =
  let p = cur st in
  let pc, pc_bytes = Privcount.Node.ts_publish p.pc_ts in
  let psc =
    match Psc.Party.ts_result p.psc_ts with
    | Some r -> r
    | None -> invalid_arg "Deploy: PSC cascade did not complete"
  in
  st.epoch_stats <- Bus.Sched.run p.sched :: st.epoch_stats;
  st.epoch_orders <- Bus.Sched.order_digest p.sched :: st.epoch_orders;
  {
    epoch;
    pc;
    pc_bytes;
    psc;
    psc_bytes = Psc.Wire.encode_result psc;
    missing_dcs = Privcount.Node.ts_missing_dcs p.pc_ts;
  }

let restore st cp =
  let epoch = cp.Bus.Checkpoint.epoch in
  (* Fresh scheduler, full setup replay: re-derives every DRBG stream
     from (seed, epoch), then the checkpoint blobs load the collected
     state over the replayed skeleton. *)
  let p = spawn_parties st.cfg st.scenario ~epoch in
  ignore (Bus.Sched.run p.sched : Bus.Sched.stats);
  for i = 0 to p.live - 1 do
    match Bus.Checkpoint.find cp (Bus.Party.Dc i) with
    | None ->
        (* no blob means the DC was down when the checkpoint was taken;
           it stays down in the restored epoch *)
        Bus.Sched.crash p.sched (Bus.Party.Dc i)
    | Some blob -> (
        match split_dc_blob blob with
        | Error e ->
            invalid_arg
              ("Deploy.restore: malformed DC blob: "
              ^ Bus.Codec.error_to_string e)
        | Ok (pc_blob, psc_blob) ->
            (match Privcount.Node.dc_load p.pc_dcs.(i) pc_blob with
            | Ok () -> ()
            | Error e ->
                invalid_arg
                  ("Deploy.restore: PrivCount DC state: "
                  ^ Bus.Codec.error_to_string e));
            (match Psc.Node.dc_load p.psc_dcs.(i) ~id:i psc_blob with
            | Ok () -> ()
            | Error e ->
                invalid_arg
                  ("Deploy.restore: PSC DC state: "
                  ^ Bus.Codec.error_to_string e)))
  done;
  for i = 0 to st.cfg.num_sks - 1 do
    match Bus.Checkpoint.find cp (Bus.Party.Sk i) with
    | Some blob ->
        if not (Privcount.Node.sk_check p.pc_sks.(i) blob) then
          invalid_arg "Deploy.restore: replayed SK state diverges from checkpoint"
    | None -> invalid_arg "Deploy.restore: checkpoint is missing an SK entry"
  done;
  st.cur <- Some p

let run cfg (scenario : Bus.Scenario.t) =
  let st = { cfg; scenario; cur = None; epoch_stats = []; epoch_orders = [] } in
  let hooks =
    {
      Bus.Lifecycle.setup = setup st;
      collect = collect st;
      aggregate = aggregate st;
      publish = publish st;
      checkpoint =
        (fun ~epoch -> checkpoint_of cfg scenario (cur st) ~epoch);
      restore = restore st;
    }
  in
  let oc =
    Bus.Lifecycle.run
      ?restart_at:(Bus.Scenario.restart_epoch scenario)
      ~epochs:cfg.epochs hooks
  in
  let digest =
    Crypto.Sha256.hex
      (String.concat ""
         (List.concat_map (fun p -> [ p.pc_bytes; p.psc_bytes ]) oc.Bus.Lifecycle.publishes))
  in
  let culprits =
    List.sort_uniq compare
      (List.concat_map
         (fun p -> p.psc.Psc.Protocol.culprits)
         oc.Bus.Lifecycle.publishes)
  in
  let detected =
    List.exists
      (fun p -> not p.psc.Psc.Protocol.proofs_ok)
      oc.Bus.Lifecycle.publishes
  in
  {
    scenario = scenario.Bus.Scenario.name;
    publishes = oc.Bus.Lifecycle.publishes;
    digest;
    detected;
    culprits;
    restarts = oc.Bus.Lifecycle.restarts;
    stats = List.rev st.epoch_stats;
    order_digests = List.rev st.epoch_orders;
    last_checkpoint =
      (match List.rev oc.Bus.Lifecycle.checkpoints with
      | [] -> None
      | c :: _ -> Some c);
  }

(* ------------------------------------------------------------------ *)
(* In-process reference: same seeds, same workload, no bus. The PSC
   half runs the same parties unencoded and in FIFO order, so it checks
   the codec round-trip and delivery-order independence; PrivCount's
   in-process pipeline is still a separate implementation. *)

let run_reference cfg (scenario : Bus.Scenario.t) =
  List.iter
    (function
      | Bus.Scenario.Dc_crash _ ->
          invalid_arg "Deploy.run_reference: crash has no in-process equivalent"
      | Bus.Scenario.Malicious_cp _ ->
          invalid_arg
            "Deploy.run_reference: tampering has no in-process equivalent"
      | Bus.Scenario.Churn _ | Bus.Scenario.Slow _ | Bus.Scenario.Restart _ -> ())
    scenario.Bus.Scenario.faults;
  Obs.with_enabled false (fun () ->
      let buf = Buffer.create 4096 in
      for epoch = 0 to cfg.epochs - 1 do
        let eseed = epoch_seed cfg epoch in
        let live = Bus.Scenario.dcs_at scenario ~base_dcs:cfg.num_dcs ~epoch in
        let wl = workload cfg ~epoch ~live in
        let round =
          Privcount.Deployment.create
            (Privcount.Deployment.config ~num_sks:cfg.num_sks counter_specs)
            ~num_dcs:live ~seed:eseed
        in
        Array.iter
          (fun (dc, name, by) ->
            Privcount.Deployment.increment round ~dc ~name ~by)
          wl.pc_events;
        Buffer.add_string buf
          (Privcount.Wire.encode_results (Privcount.Deployment.tally round));
        let proto =
          Psc.Protocol.create
            (Psc.Protocol.config ~num_cps:cfg.num_cps
               ~noise_flips_per_cp:cfg.noise_flips_per_cp
               ~proof_rounds:(Some cfg.proof_rounds) ~verify:true
               ~confidence:0.95 ~table_size:cfg.table_size ())
            ~num_dcs:live ~seed:eseed
        in
        Array.iter (fun (dc, item) -> Psc.Protocol.insert proto ~dc item) wl.psc_items;
        Buffer.add_string buf (Psc.Wire.encode_result (Psc.Protocol.run proto))
      done;
      Crypto.Sha256.hex (Buffer.contents buf))
