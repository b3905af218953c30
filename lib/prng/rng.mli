(** Deterministic seeded random number generator used throughout the
    simulator and the measurement protocols. All experiment runs are
    reproducible given a seed. xoshiro256**, seeded by SplitMix64, with
    unboxed state: [bits], [below], [bool] and [bernoulli] allocate
    nothing. *)

type t

val create : int -> t
(** [create seed] builds a generator deterministically from [seed]. *)

val split : t -> t
(** [split t] returns a generator statistically independent of [t]'s
    future output (xoshiro256** long-jump). *)

val copy : t -> t

val int64 : t -> int64
(** Uniform over all 2^64 bitpatterns. *)

val bits : t -> int
(** 62 uniform random bits as a non-negative OCaml [int]. *)

val below : t -> int -> int
(** [below t n] is uniform on [0, n); [n] must be positive. Unbiased
    (rejection sampling). *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform on [lo, hi] inclusive. *)

val float : t -> float
(** Uniform on [0, 1): exactly [float_of_int (bits t lsr 9) *. 0x1.0p-53],
    which samplers in other modules compute to keep the float unboxed. *)

val float_pos : t -> float
(** Uniform on (0, 1]; safe as a log argument. *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli t p] is true with probability [p]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniform random permutation of 0..n-1. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val bytes : t -> int -> string
(** [bytes t n] is an [n]-byte uniformly random string. *)
