(* The four benchmark workloads. Each one builds its fixtures from the
   seed (set-up), then runs one job per call and checks that job's
   output against a reference built during set-up. Everything here
   calls the layers' public functions only; per-layer numbers come
   from the benchmark's own timers around those calls and from the
   Obs ledger and metrics the library already emits when telemetry is
   on. *)

open Tormeasure

type job = {
  units : int;  (** units of work this job completed *)
  failure : string option;  (** why the job's output failed its check *)
  timers : (string * float) list;  (** per-layer values measured around this job's calls *)
}

type fixture = {
  run_job : unit -> job;
  probe : job_p50:float -> (string * float) list;
      (** traced run only: layer measurements outside the job loop *)
}

type t = {
  name : string;
  unit_name : string;  (** the unit of work behind [units_per_s] *)
  sizes : tiny:bool -> (string * int) list;  (** recorded in the result's metadata *)
  setup : tiny:bool -> seed:int -> wrong_reference:bool -> fixture;
  derive : probe:(string * float) list -> job -> Obs.Ledger.event list -> (string * float) list;
      (** per-layer values of one traced job *)
  speedup_probe : bool;  (** report [parallel.speedup_jobs2] *)
}

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let ratio a b = if b = 0. then 0. else a /. b

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Total wall time of every Phase row with this name (e.g. one
   psc.shuffle row per CP). *)
let phase_s events name =
  List.fold_left
    (fun acc -> function
      | Obs.Ledger.Phase { name = n; wall_s; _ } when n = name -> acc +. wall_s
      | _ -> acc)
    0. events

(* crypto layer: the ledger's Proof rows, whichever pipeline emitted them *)
let proof_metrics events =
  let n, ok, batch =
    List.fold_left
      (fun (n, ok, batch) -> function
        | Obs.Ledger.Proof { ok = o; batch = b; _ } -> (n + 1, (if o then ok + 1 else ok), batch + b)
        | _ -> (n, ok, batch))
      (0, 0, 0) events
  in
  let n = float_of_int n in
  [ ("crypto.proofs_verified", n);
    ("crypto.proof_batch_mean", ratio (float_of_int batch) n);
    ("crypto.proofs_ok_ratio", ratio (float_of_int ok) n) ]

let skew per_shard =
  let total = Array.fold_left ( + ) 0 per_shard in
  let mean = float_of_int total /. float_of_int (Array.length per_shard) in
  ratio (float_of_int (Array.fold_left max 0 per_shard)) mean

let perturb tallies = List.map (fun (k, v) -> (k, v + 1)) tallies
let check ok why = if ok then None else Some why

(* --- netday-live: the live data-collector path, simulation included --- *)

let netday_config ~tiny =
  if tiny then { Netday.default with relays = 60; clients = 200; shards = 4; visits_per_client = 1 }
  else { Netday.default with relays = 200; clients = 10_000; shards = 8; visits_per_client = 2 }

let netday_live =
  let sizes ~tiny =
    let c = netday_config ~tiny in
    [ ("relays", c.relays); ("clients", c.clients); ("promiscuous", c.promiscuous);
      ("shards", c.shards); ("visits_per_client", c.visits_per_client) ]
  in
  let setup ~tiny ~seed ~wrong_reference =
    let config = netday_config ~tiny in
    let reference = (Netday.run ~config ~seed ()).tallies in
    let reference = if wrong_reference then perturb reference else reference in
    let run_job () =
      let r = Netday.run ~config ~seed () in
      let failure =
        match check (r.tallies = reference) "tallies differ from the reference day" with
        | Some _ as f -> f
        | None ->
          check (Array.fold_left ( + ) 0 r.per_shard_events = r.events)
            "per_shard_events do not sum to events"
      in
      { units = r.events; failure; timers = [ ("netday.shard_skew", skew r.per_shard_events) ] }
    in
    { run_job; probe = (fun ~job_p50:_ -> []) }
  in
  let derive ~probe:_ job events =
    let per_event s = ratio (s *. 1e9) (float_of_int job.units) in
    let shards = phase_s events "netday.shards" in
    let dispatch = Option.value ~default:0. (Obs.Metrics.counter_value "torsim_dispatch_seconds_total") in
    job.timers
    @ [ ("netday.generate_s", phase_s events "netday.generate");
        ("netday.shards_s", shards);
        ("netday.merge_s", phase_s events "netday.merge");
        ("torsim.simulate_ns_per_event", per_event (shards -. dispatch));
        ("privcount.ingest_ns_per_event", per_event dispatch) ]
  in
  { name = "netday-live"; unit_name = "event"; sizes; setup; derive; speedup_probe = false }

(* --- replay-ingest: recorded segments back through ingestion --- *)

let replay_repeat ~tiny = if tiny then 2 else 5

let replay_config ~tiny =
  if tiny then { Netday.default with relays = 60; clients = 200; shards = 2; visits_per_client = 1 }
  else { Netday.default with relays = 400; clients = 20_000; shards = 4; visits_per_client = 2 }

let decode_exn bytes =
  match Evtrace.Segment.decode bytes with
  | Ok seg -> seg
  | Error e -> failwith ("segment decode: " ^ Evtrace.error_to_string e)

(* Decode every segment into a no-op sink: the trace layer alone. *)
let decode_pass segs =
  let a0 = Gc.allocated_bytes () in
  let (), s =
    timed (fun () ->
        Array.iter
          (fun seg ->
            match Evtrace.iter seg ignore with
            | Ok _ -> ()
            | Error e -> failwith ("segment iter: " ^ Evtrace.error_to_string e))
          segs)
  in
  (s, Gc.allocated_bytes () -. a0)

(* Re-encode pre-decoded events: the writer's per-event cost alone. *)
let encode_pass (seg : Evtrace.Segment.t) events =
  let w = Evtrace.Writer.create seg.meta in
  snd (timed (fun () -> Array.iter (Evtrace.Writer.event w) events))

let replay_ingest =
  let sizes ~tiny =
    let c = replay_config ~tiny in
    [ ("relays", c.relays); ("clients", c.clients); ("promiscuous", c.promiscuous);
      ("shards", c.shards); ("visits_per_client", c.visits_per_client);
      ("repeat", replay_repeat ~tiny) ]
  in
  let setup ~tiny ~seed ~wrong_reference =
    let repeat = replay_repeat ~tiny in
    let recording = Netday.record ~config:(replay_config ~tiny) ~seed () in
    let segs = Array.map decode_exn recording.segments in
    let expected = List.map (fun (k, v) -> (k, v * repeat)) recording.result.tallies in
    let expected = if wrong_reference then perturb expected else expected in
    let recorded_events = recording.result.events in
    let segment_bytes = Array.fold_left (fun acc s -> acc + String.length s) 0 recording.segments in
    let run_job () =
      match Netday.replay ~repeat ~verify:true segs with
      | r ->
        { units = r.replayed_events;
          failure = check (r.replayed_tallies = expected) "replayed tallies differ from recorded x repeat";
          timers = [ ("replay.shard_skew", skew r.replayed_per_shard) ] }
      | exception Evtrace.Mismatch m ->
        { units = 0; failure = Some (Evtrace.mismatch_to_string m); timers = [] }
    in
    let probe ~job_p50:_ =
      let events = float_of_int recorded_events in
      let decodes = List.init 3 (fun _ -> decode_pass segs) in
      let seg0 = segs.(0) in
      let views = ref [] in
      (match Evtrace.iter_events seg0 (fun ev -> views := ev :: !views) with
      | Ok _ -> ()
      | Error e -> failwith ("segment iter: " ^ Evtrace.error_to_string e));
      let seg0_events = Array.of_list (List.rev !views) in
      views := [];
      let encodes = List.init 3 (fun _ -> encode_pass seg0 seg0_events) in
      [ ("evtrace.decode_ns_per_event", median (List.map fst decodes) *. 1e9 /. events);
        ("evtrace.decode_alloc_b_per_event", median (List.map snd decodes) /. events);
        ("evtrace.encode_ns_per_event",
         median encodes *. 1e9 /. float_of_int (Array.length seg0_events));
        ("evtrace.bytes_per_event", float_of_int segment_bytes /. events) ]
    in
    { run_job; probe }
  in
  let derive ~probe job events =
    let shards = phase_s events "replay.shards" in
    let decode_ns = List.assoc "evtrace.decode_ns_per_event" probe in
    job.timers
    @ [ ("replay.shards_s", shards);
        ("replay.merge_s", phase_s events "replay.merge");
        ("privcount.ingest_ns_per_event", ratio (shards *. 1e9) (float_of_int job.units) -. decode_ns) ]
  in
  { name = "replay-ingest"; unit_name = "event"; sizes; setup; derive; speedup_probe = true }

(* --- psc-round: one PSC round, proofs on and verified --- *)

type psc_size = { slots : int; cps : int; dcs : int; flips : int; rounds : int; items : int }

let psc_size ~tiny =
  if tiny then { slots = 256; cps = 3; dcs = 2; flips = 8; rounds = 2; items = 40 }
  else { slots = 8192; cps = 3; dcs = 2; flips = 64; rounds = 2; items = 500 }

let psc_round =
  let sizes ~tiny =
    let z = psc_size ~tiny in
    [ ("table_size", z.slots); ("cps", z.cps); ("dcs", z.dcs); ("noise_flips_per_cp", z.flips);
      ("proof_rounds", z.rounds); ("inserts", z.items); ("verify", 1) ]
  in
  let setup ~tiny ~seed ~wrong_reference =
    let z = psc_size ~tiny in
    let cfg =
      Psc.Protocol.config ~num_cps:z.cps ~noise_flips_per_cp:z.flips ~proof_rounds:(Some z.rounds)
        ~verify:true ~table_size:z.slots ()
    in
    (* client IPs seen at guards: drawn from a pool smaller than the
       insert count, so the DCs' sets overlap like real guard views *)
    let rng = Random.State.make [| seed |] in
    let items =
      Array.init z.items (fun i ->
          (i mod z.dcs, Printf.sprintf "198.51.%d.%d" (Random.State.int rng 2) (Random.State.int rng 200)))
    in
    let round () =
      let p, create_s = timed (fun () -> Psc.Protocol.create cfg ~num_dcs:z.dcs ~seed) in
      let (), insert_s = timed (fun () -> Array.iter (fun (dc, item) -> Psc.Protocol.insert p ~dc item) items) in
      (Psc.Protocol.run p, create_s, insert_s)
    in
    let reference, _, _ = round () in
    let reference_bits = Int64.bits_of_float reference.estimate in
    let reference_bits = if wrong_reference then Int64.succ reference_bits else reference_bits in
    let run_job () =
      let a0 = Gc.allocated_bytes () in
      let r, create_s, insert_s = round () in
      let alloc = Gc.allocated_bytes () -. a0 in
      let failure =
        if not r.proofs_ok then Some "proofs failed"
        else check (Int64.bits_of_float r.estimate = reference_bits) "estimate differs from the reference round"
      in
      { units = z.slots;
        failure;
        timers =
          [ ("psc.create_s", create_s);
            ("psc.insert_us_per_item", insert_s *. 1e6 /. float_of_int z.items);
            ("psc.alloc_b_per_slot", alloc /. float_of_int z.slots) ] }
    in
    { run_job; probe = (fun ~job_p50:_ -> []) }
  in
  let derive ~probe:_ job events =
    let phases = [ "combine"; "noise"; "shuffle"; "rerandomize"; "decrypt"; "estimate" ] in
    let rows = List.map (fun p -> ("psc." ^ p ^ "_s", phase_s events ("psc." ^ p))) phases in
    let children = List.fold_left (fun acc (_, s) -> acc +. s) 0. rows in
    job.timers @ rows
    @ (("psc.verify_s", phase_s events "psc.run" -. children) :: proof_metrics events)
  in
  { name = "psc-round"; unit_name = "slot"; sizes; setup; derive; speedup_probe = true }

(* --- deploy-epochs: both pipelines hosted on the message bus --- *)

let deploy_config ~tiny ~seed =
  let base = Deploy.default_config ~seed ~epochs:(if tiny then 2 else 4) () in
  if tiny then { base with events_per_epoch = 200 }
  else { base with num_dcs = 8; table_size = 1024; events_per_epoch = 5000; items_per_epoch = 300 }

let benign =
  match Bus.Scenario.find "benign" with
  | Some s -> s
  | None -> failwith "no benign scenario in Bus.Scenario.catalogue"

let deploy_epochs =
  let sizes ~tiny =
    let c = deploy_config ~tiny ~seed:0 in
    [ ("epochs", c.epochs); ("num_dcs", c.num_dcs); ("num_sks", c.num_sks); ("num_cps", c.num_cps);
      ("table_size", c.table_size); ("noise_flips_per_cp", c.noise_flips_per_cp);
      ("proof_rounds", c.proof_rounds); ("events_per_epoch", c.events_per_epoch);
      ("items_per_epoch", c.items_per_epoch) ]
  in
  let setup ~tiny ~seed ~wrong_reference =
    let cfg = deploy_config ~tiny ~seed in
    let reference = Deploy.run_reference cfg benign in
    let reference = if wrong_reference then "not-" ^ reference else reference in
    let run_job () =
      let o = Deploy.run cfg benign in
      let failure =
        if o.detected then Some "benign deployment reported a detection"
        else check (o.digest = reference) "published digest differs from run_reference"
      in
      let per_epoch f =
        float_of_int (List.fold_left (fun acc s -> acc + f s) 0 o.stats) /. float_of_int cfg.epochs
      in
      { units = cfg.epochs;
        failure;
        timers =
          [ ("bus.messages_per_epoch", per_epoch (fun s -> s.Bus.Sched.delivered));
            ("bus.bytes_per_epoch", per_epoch (fun s -> s.Bus.Sched.bytes));
            ("bus.dropped", float_of_int (List.fold_left (fun acc s -> acc + s.Bus.Sched.dropped) 0 o.stats)) ] }
    in
    let probe ~job_p50 =
      let reference_s = median (List.init 3 (fun _ -> snd (timed (fun () -> Deploy.run_reference cfg benign)))) in
      [ ("bus.overhead_ratio", ratio job_p50 reference_s) ]
    in
    { run_job; probe }
  in
  let derive ~probe:_ job events =
    let epochs = float_of_int job.units in
    job.timers
    @ List.map
        (fun p -> ("deploy." ^ p ^ "_s", ratio (phase_s events ("deploy." ^ p)) epochs))
        [ "setup"; "collect"; "aggregate"; "publish" ]
    @ proof_metrics events
  in
  { name = "deploy-epochs"; unit_name = "epoch"; sizes; setup; derive; speedup_probe = false }

let all = [ netday_live; replay_ingest; psc_round; deploy_epochs ]
