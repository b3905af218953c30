(* The in-process driver: the {!Party} set on a FIFO of typed messages,
   delivered unencoded until none are left. Only the simulator-side
   ground truth lives here. *)

include Round

type t = {
  cfg : config;
  ts : Party.ts;
  dcs : Party.dc array;
  drain : unit -> unit;
  round_key : string;
  (* simulator-side ground truth of inserted items, for diagnostics *)
  inserted : (string, unit) Hashtbl.t array;
  mutable finished : bool;
}

let create cfg ~num_dcs ~seed =
  if num_dcs < 1 then invalid_arg "Protocol.create: need at least one DC";
  let fifo = Queue.create () in
  let send src dst m = Queue.add (src, dst, m) fifo in
  let ts = Party.ts cfg ~num_dcs (send Bus.Party.Ts) in
  let cps = Array.init cfg.num_cps (fun id -> Party.cp cfg ~seed ~id (send (Bus.Party.Cp id))) in
  let dcs = Array.init num_dcs (fun id -> Party.dc cfg ~seed ~id (send (Bus.Party.Dc id))) in
  let drain () =
    while not (Queue.is_empty fifo) do
      let src, dst, m = Queue.take fifo in
      let handle =
        match dst with
        | Bus.Party.Ts -> ts.Party.handle
        | Bus.Party.Cp i -> cps.(i).Party.handle
        | Bus.Party.Dc i -> dcs.(i).Party.handle
        | Bus.Party.Sk _ -> invalid_arg "Protocol: a PSC round has no SK"
      in
      handle src m
    done
  in
  (* key exchange: the TS checks the CP keys, the DCs build tables *)
  drain ();
  {
    cfg;
    ts = ts.Party.state;
    dcs = Array.map (fun dc -> dc.Party.state) dcs;
    drain;
    round_key = Round.round_key ~seed;
    inserted = Array.init num_dcs (fun _ -> Hashtbl.create 256);
    finished = false;
  }

let insert t ~dc item =
  if t.finished then invalid_arg "Protocol.insert: round already run";
  if dc < 0 || dc >= Array.length t.dcs then invalid_arg "Protocol.insert: bad dc";
  Obs.Metrics.inc "psc_inserts_total";
  Party.dc_insert t.dcs.(dc) item;
  if not (Hashtbl.mem t.inserted.(dc) item) then Hashtbl.replace t.inserted.(dc) item ()

let true_union_size t =
  let all = Hashtbl.create 1024 in
  Array.iter
    (fun tbl ->
      (* torlint: allow determinism/hashtbl-order — set union into [all],
         only its cardinality is read *)
      Hashtbl.iter (fun item () -> Hashtbl.replace all item ()) tbl)
    t.inserted;
  Hashtbl.length all

(* Distinct occupied slots across the given ground-truth tables —
   shared by the per-DC diagnostic and the round-close telemetry. *)
let occupied_slot_count t tables =
  let slots = Hashtbl.create 256 in
  Array.iter
    (fun inserted ->
      (* torlint: allow determinism/hashtbl-order — set image into
         [slots], only its cardinality is read *)
      Hashtbl.iter
        (fun item () ->
          Hashtbl.replace slots (Item.slot ~key:t.round_key ~table_size:t.cfg.table_size item) ())
        inserted)
    tables;
  Hashtbl.length slots

let inserted_slots t ~dc = occupied_slot_count t [| t.inserted.(dc) |]

(* Telemetry on the table state at round close: occupancy and the hash
   collision rate the estimator has to invert (computed from simulator
   ground truth, only when telemetry is on). *)
let record_table_metrics t =
  if Obs.enabled () then begin
    let distinct = true_union_size t in
    let occupied = occupied_slot_count t t.inserted in
    Obs.Metrics.set "psc_table_slots" (float_of_int t.cfg.table_size);
    Obs.Metrics.set "psc_table_occupied_slots" (float_of_int occupied);
    Obs.Metrics.set "psc_distinct_items" (float_of_int distinct);
    Obs.Metrics.set "psc_collision_rate"
      (if distinct = 0 then 0.0
       else float_of_int (distinct - occupied) /. float_of_int distinct)
  end

let run t =
  if t.finished then invalid_arg "Protocol.run: round already run";
  record_table_metrics t;
  (* Worker count for this round; every parallel phase runs on the same
     pool. Worker-side Obs calls buffer into per-chunk scopes and merge
     back in index order, so the ledger and spans are the same at any
     pool size. *)
  let jobs = Parallel.jobs () in
  Obs.Metrics.set "psc_parallel_jobs" (float_of_int jobs);
  Obs.Ledger.phase "psc.run"
    ~attrs:
      [ ("table_size", string_of_int t.cfg.table_size);
        ("cps", string_of_int t.cfg.num_cps);
        ("dcs", string_of_int (Array.length t.dcs));
        ("jobs", string_of_int jobs) ]
  @@ fun () ->
  t.finished <- true;
  Party.ts_request_tables t.ts ~dcs:(List.init (Array.length t.dcs) Fun.id);
  t.drain ();
  Party.ts_start_aggregate t.ts;
  t.drain ();
  match Party.ts_result t.ts with
  | Some result -> result
  | None -> invalid_arg "Protocol.run: the round did not complete"
