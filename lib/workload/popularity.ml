type config = {
  w_onionoo : float;
  w_amazon_www : float;
  w_family : (string * float) list;
  w_alexa : float;
  w_tail : float;
  alexa_exponent : float;
  tail_universe : int;
  tail_exponent : float;
  www_prefix_prob : float;
}

let paper_config =
  {
    w_onionoo = 0.40;
    w_amazon_www = 0.086;
    w_family =
      [
        ("amazon", 0.011);    (* siblings beyond www.amazon.com; family total ~9.7% *)
        ("google", 0.024);
        ("youtube", 0.001);
        ("facebook", 0.003);
        ("baidu", 0.0005);
        ("wikipedia", 0.002);
        ("yahoo", 0.002);
        ("reddit", 0.0005);
        ("qq", 0.001);
        ("duckduckgo", 0.004);
      ];
    w_alexa = 0.255;
    w_tail = 0.21;
    (* Zipf s = 1 gives approximately equal mass per rank decade, which
       is the shape of Fig. 2's rank buckets. *)
    alexa_exponent = 1.0;
    tail_universe = 3_000_000;
    tail_exponent = 0.85;
    www_prefix_prob = 0.12;
  }

type sample = { host : string; port : int; dest : Torsim.Event.dest }

(* Sibling arrays are memoized per domain (Domain.DLS, same idiom as
   Suffix.registered_domain): sampling runs on pool workers inside the
   sharded network-day driver, and a shared table would race. The
   members are a pure function of the base, so per-domain copies cannot
   disagree. *)
let family_key : (string, string array) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 16)

let family_members base =
  let tables = Domain.DLS.get family_key in
  match Hashtbl.find_opt tables base with
  | Some members -> members
  | None ->
    let members = Array.of_list (Domains.sibling_family base) in
    Hashtbl.replace tables base members;
    members

(* A config with what every draw needs precomputed: the mixture's
   weight sums and the two Zipf samplers. *)
type sampler = {
  config : config;
  total : float;
  family_total : float;
  alexa : Prng.Dist.Zipf.t;
  tail : Prng.Dist.Zipf.t;
}

let sampler config =
  let family_total = List.fold_left (fun a (_, w) -> a +. w) 0.0 config.w_family in
  {
    config;
    total = config.w_onionoo +. config.w_amazon_www +. family_total +. config.w_alexa +. config.w_tail;
    family_total;
    alexa = Prng.Dist.Zipf.create ~n:Domains.list_size ~s:config.alexa_exponent;
    tail = Prng.Dist.Zipf.create ~n:config.tail_universe ~s:config.tail_exponent;
  }

let draw_host p rng =
  let config = p.config in
  let x = Prng.Rng.float rng *. p.total in
  let rec pick x =
    if x < config.w_onionoo then Domains.onionoo
    else
      let x = x -. config.w_onionoo in
      if x < config.w_amazon_www then "www.amazon.com"
      else
        let x = x -. config.w_amazon_www in
        let rec families x = function
          | [] -> None
          | (base, w) :: rest ->
            if x < w then
              let members = family_members base in
              Some members.(Prng.Rng.below rng (Array.length members))
            else families (x -. w) rest
        in
        match families x config.w_family with
        | Some host -> host
        | None ->
          let x = x -. p.family_total in
          if x < config.w_alexa then begin
            (* Truncated Zipf over ranks 11..1M: the paper's rank buckets
               show roughly equal mass per rank decade, and the top-10
               sites get almost no generic Tor traffic beyond the
               amazon/google anchors modelled explicitly above. *)
            let rec rank () =
              let r = Prng.Dist.Zipf.draw p.alexa rng in
              if r > 10 then r else rank ()
            in
            let host = Domains.name_of_rank (rank ()) in
            if Prng.Rng.bernoulli rng config.www_prefix_prob then "www." ^ host else host
          end
          else if x < config.w_alexa +. config.w_tail then
            Domains.tail_name (Prng.Dist.Zipf.draw p.tail rng - 1)
          else pick 0.0 (* float rounding: retry from the top *)
  in
  pick x

(* Rates the paper measured as statistically indistinguishable from
   zero: IP-literal initial streams and non-web ports. We include tiny
   positive rates so the code paths are exercised and the measured
   values stay within the noise. *)
let ip_literal_prob = 0.0005
let ipv6_given_literal = 0.2
let other_port_prob = 0.001

let draw p rng =
  if Prng.Rng.bernoulli rng ip_literal_prob then
    let dest =
      if Prng.Rng.bernoulli rng ipv6_given_literal then Torsim.Event.Ipv6_literal
      else Torsim.Event.Ipv4_literal
    in
    { host = ""; port = (if Prng.Rng.bool rng then 443 else 80); dest }
  else
    let host = draw_host p rng in
    let port =
      if Prng.Rng.bernoulli rng other_port_prob then
        if Prng.Rng.bool rng then 22 else 8080
      else if Prng.Rng.bernoulli rng 0.7 then 443
      else 80
    in
    { host; port; dest = Torsim.Event.Hostname host }
