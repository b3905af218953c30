(** The destination-popularity model for exit traffic.

    A mixture calibrated to what the paper measured: onionoo.torproject.org
    dominates (~40% of primary domains), www.amazon.com is ~8.6%, sibling
    families contribute small shares, the rest of the Alexa list follows a
    Zipf law with roughly equal mass per rank decade, and ~20% of visits go
    to a long tail of non-Alexa sites. The experiments verify that the
    privacy-preserving pipeline *recovers* these ground-truth shares. *)

type config = {
  w_onionoo : float;
  w_amazon_www : float;
  w_family : (string * float) list;  (* extra per-family weight, spread over members *)
  w_alexa : float;                   (* Zipf over the full list *)
  w_tail : float;                    (* non-Alexa long tail *)
  alexa_exponent : float;
  tail_universe : int;
  tail_exponent : float;
  www_prefix_prob : float;           (* chance a visit uses a www. subdomain *)
}

val paper_config : config

type sample = { host : string; port : int; dest : Torsim.Event.dest }

type sampler
(** A config with its weight sums and Zipf samplers precomputed: build
    it once per run, not per draw. *)

val sampler : config -> sampler

val draw : sampler -> Prng.Rng.t -> sample
(** Draw one primary-domain visit (hostname, port, literal-vs-hostname).
    IPv4/IPv6 literals and non-web ports appear with the tiny rates the
    paper found statistically insignificant. *)

val draw_host : sampler -> Prng.Rng.t -> string
(** Just the hostname (always a hostname destination). *)
