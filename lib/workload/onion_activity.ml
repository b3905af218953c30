(* Onion-service workload for §6: descriptor publishes, descriptor
   fetches (with the overwhelming failure rate the paper measured), and
   rendezvous circuits with their success/failure mix. *)

type config = {
  services : int;               (* active v2 onion services *)
  public_fraction : float;      (* listed in the public (ahmia-like) index *)
  publishes_per_service : float;(* descriptor uploads per service-day *)
  fetched_fraction : float;     (* fraction of services fetched at least once *)
  fetch_fail_rate : float;      (* failed / total descriptor fetches (paper: 0.909) *)
  malformed_share_of_failures : float;
  total_fetches : int;
  success_zipf : float;         (* popularity skew of fetched services *)
  bogus_zipf : float;           (* repetition skew of dead addresses *)
  rend_total : int;             (* rendezvous circuits *)
  rend_success : float;         (* 0.0808 *)
  rend_closed : float;          (* 0.0437 *)
  cells_per_active_mean : float;(* cells on an active rendezvous circuit *)
}

let default =
  {
    services = 3_000;
    public_fraction = 0.55;
    publishes_per_service = 24.0;
    fetched_fraction = 0.75;
    fetch_fail_rate = 0.909;
    malformed_share_of_failures = 0.15;
    total_fetches = 120_000;
    success_zipf = 0.3;
    bogus_zipf = 0.5;
    rend_total = 60_000;
    rend_success = 0.0808;
    rend_closed = 0.0437;
    (* 730 KiB mean per active circuit / 498-byte cells ≈ 1500 cells *)
    cells_per_active_mean = 1500.0;
  }

let setup_services config engine rng =
  let registry = Torsim.Engine.onion_registry engine in
  Torsim.Onion.populate registry ~count:config.services ~public_fraction:config.public_fraction rng

(* Publish descriptors: every service publishes throughout the day; the
   first publish of a service-day carries the [first_publish] flag used
   by the "new address" bound. *)
let run_publishes config engine rng =
  let registry = Torsim.Engine.onion_registry engine in
  Array.iter
    (fun service ->
      let n =
        max 1 (Prng.Dist.poisson rng ~lambda:config.publishes_per_service)
      in
      for i = 0 to n - 1 do
        Torsim.Engine.publish_descriptor engine ~address:service.Torsim.Onion.address
          ~first_publish:(i = 0)
      done)
    (Torsim.Onion.services registry)

(* Fetches: successful ones target published services with a Zipf
   popularity; failures are bogus addresses (botnets / stale scanner
   lists) or malformed requests. *)
let run_fetches config engine rng =
  let registry = Torsim.Engine.onion_registry engine in
  let services = Torsim.Onion.services registry in
  let n_services = Array.length services in
  if n_services = 0 then invalid_arg "Onion_activity.run_fetches: no services";
  let fetchable = max 1 (int_of_float (config.fetched_fraction *. float_of_int n_services)) in
  let bogus = Prng.Dist.Zipf.create ~n:50_000 ~s:config.bogus_zipf in
  let success = Prng.Dist.Zipf.create ~n:fetchable ~s:config.success_zipf in
  for _ = 1 to config.total_fetches do
    if Prng.Rng.bernoulli rng config.fetch_fail_rate then begin
      if Prng.Rng.bernoulli rng config.malformed_share_of_failures then
        Torsim.Engine.fetch_malformed engine
      else
        (* heavy repetition of a few dead addresses: botnet-like *)
        let k = Prng.Dist.Zipf.draw bogus rng in
        Torsim.Engine.fetch_descriptor engine ~address:(Torsim.Onion.bogus_address k)
    end
    else begin
      let k = Prng.Dist.Zipf.draw success rng in
      let service = services.(k - 1) in
      Torsim.Engine.fetch_descriptor engine ~address:service.Torsim.Onion.address
    end
  done

(* Rendezvous circuits. A successful end-to-end rendezvous involves a
   client circuit and a service circuit at the RP, so successes arrive
   in pairs (§6.3). [rend_success] is the *per-circuit* success share
   the paper reports (8.08%), so the per-attempt success probability is
   q = p / (2 - p): each successful attempt contributes two circuits. *)
let run_rendezvous config engine rng =
  let q = config.rend_success /. (2.0 -. config.rend_success) in
  let fail_total = 1.0 -. config.rend_success in
  let closed_given_fail = config.rend_closed /. fail_total in
  let i = ref 0 in
  while !i < config.rend_total do
    if Prng.Rng.bernoulli rng q then begin
      (* two circuits, both carrying the payload cells *)
      let cells =
        1 + Prng.Dist.poisson rng ~lambda:config.cells_per_active_mean
      in
      Torsim.Engine.rendezvous engine ~outcome:(Torsim.Event.Rend_success { cells });
      Torsim.Engine.rendezvous engine ~outcome:(Torsim.Event.Rend_success { cells });
      i := !i + 2
    end
    else begin
      let outcome =
        if Prng.Rng.bernoulli rng closed_given_fail then Torsim.Event.Rend_closed
        else Torsim.Event.Rend_expired
      in
      Torsim.Engine.rendezvous engine ~outcome;
      incr i
    end
  done

let run ?(config = default) engine rng =
  let (_ : Torsim.Onion.service list) = setup_services config engine rng in
  run_publishes config engine rng;
  run_fetches config engine rng;
  run_rendezvous config engine rng
