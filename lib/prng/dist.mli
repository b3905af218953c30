(** Random variate generation for the distributions used by the noise
    mechanisms (normal, binomial) and the synthetic workloads (zipf,
    poisson, exponential, geometric). NaN parameters raise
    [Invalid_argument]. *)

val normal : Rng.t -> mu:float -> sigma:float -> float
(** Gaussian variate (Marsaglia polar method). *)

val exponential : Rng.t -> rate:float -> float
(** Exponential variate with rate [rate] > 0. *)

val poisson : Rng.t -> lambda:float -> int
(** Poisson variate; exact (Knuth) for small lambda, normal
    approximation with continuity correction for large lambda. *)

val binomial : Rng.t -> n:int -> p:float -> int
(** Binomial(n, p) variate; exact for small n, normal approximation
    (clamped to [0, n]) for large n. *)

val geometric : Rng.t -> p:float -> int
(** Number of failures before the first success, support {0,1,...}.
    Exact also where 1 - p rounds to 1; saturates at [max_int]. *)

(** Zipf variates on {1..n} with exponent [s] > 0, by rejection-inversion
    (W. Hörmann, G. Derflinger). Heavy-tail model for domain popularity. *)
module Zipf : sig
  type t

  val create : n:int -> s:float -> t
  (** A sampler for Zipf(n, s). It precomputes the inversion bounds and,
      for n <= 65536, every rank's acceptance bound, so a draw makes one
      [**] call and allocates nothing. Build it once, outside the loop.
      Raises [Invalid_argument] when n < 1 or s is not positive (NaN
      included). *)

  val draw : t -> Rng.t -> int
  (** The same variate, from the same RNG draws, as [zipf]. *)
end

val zipf : Rng.t -> n:int -> s:float -> int
(** One Zipf(n, s) variate: [Zipf.draw] of a sampler built for this call
    only (without the per-rank table). *)

val zipf_weights : n:int -> s:float -> float array
(** Unnormalized Zipf pmf 1/k^s for k = 1..n, for alias-table setup. *)

val log_factorial : int -> float
(** ln(n!), via Stirling series for large n; used by exact CI code. *)

val log_choose : int -> int -> float
(** ln(n choose k). *)
