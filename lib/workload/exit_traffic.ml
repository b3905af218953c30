(* The exit-side workload for §4: website visits whose first stream
   carries the user-intended destination. Tor Browser builds a new
   circuit per address-bar domain, then multiplexes the page's embedded
   resources as subsequent streams on the same circuit; the paper finds
   only ~5% of streams are initial, so a visit carries ~19 subsequent
   streams on average. *)

type config = {
  popularity : Popularity.config;
  subsequent_mean : float;
  bytes_per_visit_mean : float;
  third_party_prob : float;
      (* chance an embedded-resource stream targets a third-party
         CDN/ad host rather than the page's own host — the reason the
         paper's domain measurements count only initial streams *)
}

let default =
  {
    popularity = Popularity.paper_config;
    subsequent_mean = 19.0;
    bytes_per_visit_mean = 2.0 *. 1024.0 *. 1024.0;
    third_party_prob = 0.55;
  }

(* A small, highly concentrated universe of CDN / ad / analytics hosts:
   "cdn<a>.t<b>.com" for Zipf(40, 1.2) ranks a and b. The names are
   interned at module load, [cdn_hosts.(a).(b)], so a draw builds no
   string. *)
let cdn_zipf = Prng.Dist.Zipf.create ~n:40 ~s:1.2

let cdn_hosts =
  Array.init 41 (fun a -> Array.init 41 (fun b -> Printf.sprintf "cdn%d.t%d.com" a b))

let third_party_host rng =
  (* The t-rank is drawn before the cdn-rank: the recorded streams (and
     the golden segment digests that pin them) draw in that order. *)
  let t = Prng.Dist.Zipf.draw cdn_zipf rng in
  let cdn = Prng.Dist.Zipf.draw cdn_zipf rng in
  cdn_hosts.(cdn).(t)

let run_visit config popularity engine client rng =
  let { Popularity.host = _; port; dest } = Popularity.draw popularity rng in
  let subsequent =
    Prng.Dist.geometric rng ~p:(1.0 /. (1.0 +. config.subsequent_mean))
  in
  let bytes = Prng.Dist.exponential rng ~rate:(1.0 /. config.bytes_per_visit_mean) in
  let subsequent_dest _i =
    if Prng.Rng.bernoulli rng config.third_party_prob then
      (Torsim.Event.Hostname (third_party_host rng), port)
    else (dest, port)
  in
  Torsim.Engine.exit_visit engine client ~dest ~port ~subsequent_streams:subsequent
    ~subsequent_dest ~bytes ()

(* Drive [visits] total website visits from a round-robin of clients. *)
let run ?(config = default) engine population rng ~visits =
  let clients = Population.clients population in
  let n = Array.length clients in
  if n = 0 then invalid_arg "Exit_traffic.run: empty population";
  let popularity = Popularity.sampler config.popularity in
  for i = 0 to visits - 1 do
    run_visit config popularity engine clients.(i mod n) rng
  done
