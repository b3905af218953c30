let check_float = Alcotest.(check (float 1e-9))

(* --- determinism and stream independence --- *)

let test_determinism () =
  let a = Prng.Rng.create 42 and b = Prng.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.Rng.int64 a) (Prng.Rng.int64 b)
  done

let test_seed_sensitivity () =
  let a = Prng.Rng.create 1 and b = Prng.Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.Rng.int64 a = Prng.Rng.int64 b then incr same
  done;
  Alcotest.(check bool) "different seeds diverge" true (!same < 4)

let test_split_independent () =
  let a = Prng.Rng.create 7 in
  let child = Prng.Rng.split a in
  let xs = Array.init 32 (fun _ -> Prng.Rng.int64 a) in
  let ys = Array.init 32 (fun _ -> Prng.Rng.int64 child) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let test_copy () =
  let a = Prng.Rng.create 7 in
  ignore (Prng.Rng.int64 a);
  let b = Prng.Rng.copy a in
  Alcotest.(check int64) "copy resumes identically" (Prng.Rng.int64 a) (Prng.Rng.int64 b)

(* --- uniformity --- *)

let test_below_range () =
  let rng = Prng.Rng.create 11 in
  for _ = 1 to 10_000 do
    let v = Prng.Rng.below rng 17 in
    if v < 0 || v >= 17 then Alcotest.fail "below out of range"
  done

let test_below_uniform () =
  let rng = Prng.Rng.create 13 in
  let counts = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Prng.Rng.below rng 10 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c ->
      let expected = float_of_int n /. 10.0 in
      if abs_float (float_of_int c -. expected) > 5.0 *. sqrt expected then
        Alcotest.fail "bucket count outside 5 sigma")
    counts

let test_float_bounds () =
  let rng = Prng.Rng.create 3 in
  for _ = 1 to 10_000 do
    let f = Prng.Rng.float rng in
    if f < 0.0 || f >= 1.0 then Alcotest.fail "float outside [0,1)"
  done

let test_int_in () =
  let rng = Prng.Rng.create 5 in
  let seen_lo = ref false and seen_hi = ref false in
  for _ = 1 to 10_000 do
    let v = Prng.Rng.int_in rng (-3) 3 in
    if v < -3 || v > 3 then Alcotest.fail "int_in out of range";
    if v = -3 then seen_lo := true;
    if v = 3 then seen_hi := true
  done;
  Alcotest.(check bool) "endpoints reachable" true (!seen_lo && !seen_hi)

let test_permutation () =
  let rng = Prng.Rng.create 21 in
  let p = Prng.Rng.permutation rng 50 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

(* --- distribution moments --- *)

let mean_of f n rng =
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. f rng
  done;
  !sum /. float_of_int n

let test_normal_moments () =
  let rng = Prng.Rng.create 31 in
  let n = 200_000 in
  let sum = ref 0.0 and sumsq = ref 0.0 in
  for _ = 1 to n do
    let x = Prng.Dist.normal rng ~mu:5.0 ~sigma:2.0 in
    sum := !sum +. x;
    sumsq := !sumsq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean near 5" true (abs_float (mean -. 5.0) < 0.05);
  Alcotest.(check bool) "var near 4" true (abs_float (var -. 4.0) < 0.15)

let test_exponential_mean () =
  let rng = Prng.Rng.create 37 in
  let mean = mean_of (fun r -> Prng.Dist.exponential r ~rate:0.5) 100_000 rng in
  Alcotest.(check bool) "mean near 2" true (abs_float (mean -. 2.0) < 0.05)

let test_poisson_mean_small () =
  let rng = Prng.Rng.create 41 in
  let mean = mean_of (fun r -> float_of_int (Prng.Dist.poisson r ~lambda:3.5)) 100_000 rng in
  Alcotest.(check bool) "mean near 3.5" true (abs_float (mean -. 3.5) < 0.05)

let test_poisson_mean_large () =
  let rng = Prng.Rng.create 43 in
  let mean = mean_of (fun r -> float_of_int (Prng.Dist.poisson r ~lambda:500.0)) 20_000 rng in
  Alcotest.(check bool) "mean near 500" true (abs_float (mean -. 500.0) < 2.0)

let test_binomial_exact_small () =
  let rng = Prng.Rng.create 47 in
  let mean = mean_of (fun r -> float_of_int (Prng.Dist.binomial r ~n:20 ~p:0.3)) 100_000 rng in
  Alcotest.(check bool) "mean near 6" true (abs_float (mean -. 6.0) < 0.05)

let test_binomial_large () =
  let rng = Prng.Rng.create 53 in
  let mean = mean_of (fun r -> float_of_int (Prng.Dist.binomial r ~n:10_000 ~p:0.5)) 5_000 rng in
  Alcotest.(check bool) "mean near 5000" true (abs_float (mean -. 5000.0) < 10.0)

let test_binomial_extreme_p () =
  let rng = Prng.Rng.create 59 in
  let mean = mean_of (fun r -> float_of_int (Prng.Dist.binomial r ~n:1_000 ~p:0.001)) 50_000 rng in
  Alcotest.(check bool) "mean near 1" true (abs_float (mean -. 1.0) < 0.05)

let test_binomial_edges () =
  let rng = Prng.Rng.create 61 in
  Alcotest.(check int) "n=0" 0 (Prng.Dist.binomial rng ~n:0 ~p:0.5);
  Alcotest.(check int) "p=0" 0 (Prng.Dist.binomial rng ~n:100 ~p:0.0);
  Alcotest.(check int) "p=1" 100 (Prng.Dist.binomial rng ~n:100 ~p:1.0)

let test_geometric_mean () =
  let rng = Prng.Rng.create 67 in
  (* mean failures before success = (1-p)/p = 3 for p = 0.25 *)
  let mean = mean_of (fun r -> float_of_int (Prng.Dist.geometric r ~p:0.25)) 100_000 rng in
  Alcotest.(check bool) "mean near 3" true (abs_float (mean -. 3.0) < 0.1)

let test_zipf_support () =
  let rng = Prng.Rng.create 71 in
  for _ = 1 to 10_000 do
    let v = Prng.Dist.zipf rng ~n:1000 ~s:1.1 in
    if v < 1 || v > 1000 then Alcotest.fail "zipf out of support"
  done

let test_zipf_rank1_frequency () =
  (* P(1) = 1 / (1^s * H_{n,s}); for n=100, s=1, H = 5.187..., so ~0.1928 *)
  let rng = Prng.Rng.create 73 in
  let n = 200_000 in
  let ones = ref 0 in
  for _ = 1 to n do
    if Prng.Dist.zipf rng ~n:100 ~s:1.0 = 1 then incr ones
  done;
  let freq = float_of_int !ones /. float_of_int n in
  let h = Array.fold_left ( +. ) 0.0 (Array.init 100 (fun i -> 1.0 /. float_of_int (i + 1))) in
  Alcotest.(check bool) "rank-1 frequency" true (abs_float (freq -. (1.0 /. h)) < 0.01)

let test_zipf_n1 () =
  let rng = Prng.Rng.create 79 in
  Alcotest.(check int) "n=1 always 1" 1 (Prng.Dist.zipf rng ~n:1 ~s:2.0)

let test_log_factorial () =
  check_float "0!" 0.0 (Prng.Dist.log_factorial 0);
  check_float "5!" (log 120.0) (Prng.Dist.log_factorial 5);
  (* Stirling branch vs exact sum at n=300 *)
  let exact = ref 0.0 in
  for i = 2 to 300 do
    exact := !exact +. log (float_of_int i)
  done;
  Alcotest.(check bool) "stirling accurate" true
    (abs_float (Prng.Dist.log_factorial 300 -. !exact) < 1e-8)

let test_log_choose () =
  check_float "C(5,2)" (log 10.0) (Prng.Dist.log_choose 5 2);
  Alcotest.(check bool) "k>n" true (Prng.Dist.log_choose 3 5 = neg_infinity);
  Alcotest.(check bool) "k<0" true (Prng.Dist.log_choose 3 (-1) = neg_infinity)

(* --- invalid arguments --- *)

let test_invalid_arguments () =
  let rng = Prng.Rng.create 1 in
  Alcotest.check_raises "below 0" (Invalid_argument "Rng.below: n must be positive") (fun () ->
      ignore (Prng.Rng.below rng 0));
  Alcotest.check_raises "below negative" (Invalid_argument "Rng.below: n must be positive")
    (fun () -> ignore (Prng.Rng.below rng (-3)));
  Alcotest.check_raises "int_in inverted" (Invalid_argument "Rng.int_in: empty range")
    (fun () -> ignore (Prng.Rng.int_in rng 5 4));
  Alcotest.check_raises "choose empty" (Invalid_argument "Rng.choose: empty array") (fun () ->
      ignore (Prng.Rng.choose rng [||]));
  Alcotest.check_raises "exponential rate" (Invalid_argument "Dist.exponential: rate must be positive")
    (fun () -> ignore (Prng.Dist.exponential rng ~rate:0.0));
  Alcotest.check_raises "poisson negative" (Invalid_argument "Dist.poisson: negative lambda")
    (fun () -> ignore (Prng.Dist.poisson rng ~lambda:(-1.0)));
  Alcotest.check_raises "binomial negative n" (Invalid_argument "Dist.binomial: negative n")
    (fun () -> ignore (Prng.Dist.binomial rng ~n:(-1) ~p:0.5));
  Alcotest.check_raises "binomial bad p" (Invalid_argument "Dist.binomial: p outside [0,1]")
    (fun () -> ignore (Prng.Dist.binomial rng ~n:10 ~p:1.5));
  Alcotest.check_raises "geometric bad p" (Invalid_argument "Dist.geometric: p outside (0,1]")
    (fun () -> ignore (Prng.Dist.geometric rng ~p:0.0));
  Alcotest.check_raises "zipf bad n" (Invalid_argument "Dist.zipf: n must be >= 1") (fun () ->
      ignore (Prng.Dist.zipf rng ~n:0 ~s:1.0));
  Alcotest.check_raises "zipf bad s" (Invalid_argument "Dist.zipf: s must be positive")
    (fun () -> ignore (Prng.Dist.zipf rng ~n:10 ~s:0.0));
  Alcotest.check_raises "log_factorial negative"
    (Invalid_argument "Dist.log_factorial: negative argument") (fun () ->
      ignore (Prng.Dist.log_factorial (-1)))

(* NaN fails every comparison, so guards written as [x <= 0.0] let it
   through: zipf looped forever, poisson/geometric/binomial returned 0. *)
let test_nan_parameters () =
  let rng = Prng.Rng.create 1 in
  let raises name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: NaN accepted" name
  in
  raises "zipf s" (fun () -> Prng.Dist.zipf rng ~n:10 ~s:nan);
  raises "Zipf.create s" (fun () -> ignore (Prng.Dist.Zipf.create ~n:10 ~s:nan); 0);
  raises "poisson lambda" (fun () -> Prng.Dist.poisson rng ~lambda:nan);
  raises "geometric p" (fun () -> Prng.Dist.geometric rng ~p:nan);
  raises "binomial p" (fun () -> Prng.Dist.binomial rng ~n:10 ~p:nan);
  raises "binomial p, skipping branch" (fun () -> Prng.Dist.binomial rng ~n:1000 ~p:nan);
  raises "exponential rate" (fun () -> int_of_float (Prng.Dist.exponential rng ~rate:nan))

(* Where 1 - p rounds to 1, log (1 - p) is 0: geometric returned 0 and
   the skipping binomial returned n. The mean of geometric(p) is
   (1 - p) / p. *)
let test_tiny_p () =
  let rng = Prng.Rng.create 2 in
  let p = 1e-17 in
  let n = 2000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let g = Prng.Dist.geometric rng ~p in
    if g < 0 then Alcotest.fail "negative geometric";
    sum := !sum +. float_of_int g
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) (Printf.sprintf "geometric 1e-17 mean %g near 1e17" mean) true
    (abs_float (mean -. 1e17) < 0.15e17);
  Alcotest.(check int) "saturates at max_int" max_int
    (let rec first_saturated () =
       let g = Prng.Dist.geometric rng ~p:1e-300 in
       if g = max_int then g else first_saturated ()
     in
     first_saturated ());
  let successes = ref 0 in
  for _ = 1 to 100 do
    successes := !successes + Prng.Dist.binomial rng ~n:1000 ~p
  done;
  Alcotest.(check int) "binomial where 1 - p rounds to 1" 0 !successes

let test_below_one_always_zero () =
  let rng = Prng.Rng.create 2 in
  for _ = 1 to 100 do
    Alcotest.(check int) "n=1" 0 (Prng.Rng.below rng 1)
  done

let test_below_large_n () =
  (* n close to the 62-bit sample-space size must not loop or bias *)
  let rng = Prng.Rng.create 3 in
  let n = max_int / 2 in
  for _ = 1 to 50 do
    let v = Prng.Rng.below rng n in
    if v < 0 || v >= n then Alcotest.fail "out of range"
  done

(* --- alias sampler --- *)

let test_alias_matches_weights () =
  let rng = Prng.Rng.create 83 in
  let weights = [| 1.0; 2.0; 3.0; 4.0 |] in
  let a = Prng.Alias.create weights in
  let counts = Array.make 4 0 in
  let n = 200_000 in
  for _ = 1 to n do
    let i = Prng.Alias.sample a rng in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = weights.(i) /. 10.0 *. float_of_int n in
      if abs_float (float_of_int c -. expected) > 6.0 *. sqrt expected then
        Alcotest.fail (Printf.sprintf "alias bucket %d off: %d vs %f" i c expected))
    counts

let test_alias_single () =
  let rng = Prng.Rng.create 89 in
  let a = Prng.Alias.create [| 42.0 |] in
  Alcotest.(check int) "single bucket" 0 (Prng.Alias.sample a rng);
  Alcotest.(check int) "length" 1 (Prng.Alias.length a)

let test_alias_zero_weight () =
  let rng = Prng.Rng.create 97 in
  let a = Prng.Alias.create [| 0.0; 1.0; 0.0 |] in
  for _ = 1 to 1000 do
    Alcotest.(check int) "only positive bucket" 1 (Prng.Alias.sample a rng)
  done

let test_alias_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Alias.create: empty distribution")
    (fun () -> ignore (Prng.Alias.create [||]));
  Alcotest.check_raises "all zero"
    (Invalid_argument "Alias.create: weights must sum to a positive value") (fun () ->
      ignore (Prng.Alias.create [| 0.0; 0.0 |]))

(* --- known answers and golden streams --- *)

(* The first xoshiro256** outputs for seed 42 (SplitMix64-expanded
   state), checked against an independent implementation. *)
let test_known_answer () =
  let rng = Prng.Rng.create 42 in
  List.iter
    (fun expected -> Alcotest.(check int64) "xoshiro256** output" expected (Prng.Rng.int64 rng))
    [ 1546998764402558742L; 6990951692964543102L; -5902157311460992607L; -1389169964527427423L ]

(* MD5 over the first [golden_draws] outputs of a stream, each as 8
   little-endian bytes (floats by their bit pattern). Any change to the
   generator or a sampler that alters a single draw changes the digest. *)
let golden_draws = 10_000

let stream_digest draw =
  let b = Buffer.create (golden_draws * 8) in
  for _ = 1 to golden_draws do
    Buffer.add_int64_le b (draw ())
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let of_int f () = Int64.of_int (f ())
let of_float f () = Int64.bits_of_float (f ())
let of_bool f () = if f () then 1L else 0L

(* Each stream starts from a fresh [Rng.create 42]. *)
let golden_streams : (string * string * (Prng.Rng.t -> unit -> int64)) list =
  let open Prng in
  [
    ("split child", "1172f068963f8cd40a6e0dc51719d539",
      fun r -> let c = Rng.split r in fun () -> Rng.int64 c);
    ("split parent", "e596d12b9b5d9cdc31637f92ff5d3e30",
      fun r -> ignore (Rng.split r); fun () -> Rng.int64 r);
    ("copy", "54208693dbf344f51c3811e88bddf634",
      fun r -> ignore (Rng.int64 r); let c = Rng.copy r in fun () -> Rng.int64 c);
    ("bits", "10ba957d137886cb2114326bbec2b0fd", fun r -> of_int (fun () -> Rng.bits r));
    ("below 7", "07ed842e17d8904836e8a62ec5ebf4ae", fun r -> of_int (fun () -> Rng.below r 7));
    ("below 17", "cf6a436cbff6a8d9c7a77fd24a90fb2a", fun r -> of_int (fun () -> Rng.below r 17));
    ("below 2^40", "49ccb27d851da944adcc7e689b37a074",
      fun r -> of_int (fun () -> Rng.below r (1 lsl 40)));
    ("float", "e733c6fd8b436b0c6bbfa66d7fa60d52", fun r -> of_float (fun () -> Rng.float r));
    ("bool", "83210e063585f9fc61e37cf84c8105a3", fun r -> of_bool (fun () -> Rng.bool r));
    ("bernoulli 0.3", "2cb99e801a8c7e5227f69fa7dd117aa6",
      fun r -> of_bool (fun () -> Rng.bernoulli r 0.3));
    ("zipf 40 1.2", "f17559decd490db9e9c6739250db55b3",
      fun r -> of_int (fun () -> Dist.zipf r ~n:40 ~s:1.2));
    ("zipf 1000 1.1", "647e555e8217906687c75804e45eba3f",
      fun r -> of_int (fun () -> Dist.zipf r ~n:1000 ~s:1.1));
    ("zipf 1e6 1.0", "4d9faa0321633d3b38ea6710828c9fe8",
      fun r -> of_int (fun () -> Dist.zipf r ~n:1_000_000 ~s:1.0));
    ("zipf 3e6 0.85", "a755e68f28c56fd32aad4ab604ae110a",
      fun r -> of_int (fun () -> Dist.zipf r ~n:3_000_000 ~s:0.85));
    ("poisson 3.5", "d27f5fb16247f81979b2a464ceb17201",
      fun r -> of_int (fun () -> Dist.poisson r ~lambda:3.5));
    ("poisson 13.5", "78fad516b69f6b7d3d45fd196972f237",
      fun r -> of_int (fun () -> Dist.poisson r ~lambda:13.5));
    ("poisson 100", "a3346a0838020f948901846c83c349e8",
      fun r -> of_int (fun () -> Dist.poisson r ~lambda:100.0));
    ("geometric 0.05", "67b7c2e2d2701fdadffbd258f4ea8136",
      fun r -> of_int (fun () -> Dist.geometric r ~p:0.05));
    ("exponential 0.5", "109f05fe8207556c4de833ffd739f267",
      fun r -> of_float (fun () -> Dist.exponential r ~rate:0.5));
    ("normal", "447d38f079afefba00344b8f33b32bdd",
      fun r -> of_float (fun () -> Dist.normal r ~mu:1.5 ~sigma:2.0));
    ("binomial trivial", "47de5ec07fb1638c4a0de0fe47a6c5ee",
      fun r ->
        of_int (fun () ->
            Dist.binomial r ~n:0 ~p:0.5 + Dist.binomial r ~n:9 ~p:0.0 + Dist.binomial r ~n:9 ~p:1.0));
    ("binomial exact", "1d157c90a2bfe2f50e03adafed4edb48",
      fun r -> of_int (fun () -> Dist.binomial r ~n:20 ~p:0.3));
    ("binomial skip low p", "c64ad100f30c5d95310170028f00712e",
      fun r -> of_int (fun () -> Dist.binomial r ~n:1000 ~p:0.001));
    ("binomial skip high p", "0c253a7d241eb3a6f1ffb42578cdcc17",
      fun r -> of_int (fun () -> Dist.binomial r ~n:1000 ~p:0.998));
    ("binomial normal", "7a7dbeaf989f377af06c0a3a09cc59d7",
      fun r -> of_int (fun () -> Dist.binomial r ~n:10_000 ~p:0.5));
    ("alias", "852340ac79dc640168730ed65c2d937e",
      fun r ->
        let a = Alias.create [| 0.5; 3.0; 0.0; 1.25; 7.0; 0.1 |] in
        of_int (fun () -> Alias.sample a r));
  ]

let test_golden_streams () =
  List.iter
    (fun (name, expected, stream) ->
      Alcotest.(check string) name expected (stream_digest (stream (Prng.Rng.create 42))))
    golden_streams

(* [Zipf.draw] makes [Dist.zipf]'s draws (whose streams are pinned
   above): its per-rank table (n <= 65536) changes no draw, including
   for s < 1, where some uniforms fall outside h_inv's domain and are
   rejected. *)
let test_zipf_table_matches () =
  List.iter
    (fun (n, s) ->
      let z = Prng.Dist.Zipf.create ~n ~s in
      let a = Prng.Rng.create 9 and b = Prng.Rng.create 9 in
      Alcotest.(check string) (Printf.sprintf "n=%d s=%g" n s)
        (stream_digest (of_int (fun () -> Prng.Dist.zipf a ~n ~s)))
        (stream_digest (of_int (fun () -> Prng.Dist.Zipf.draw z b))))
    [ (2, 0.3); (40, 1.2); (1000, 1.1); (1000, 0.6); (2250, 0.3); (50_000, 0.5); (100, 1.0);
      (100, 2.5); (65_536, 0.1); (1_000_000, 1.0) ]

(* --- allocation --- *)

(* Minor words allocated per call of [f], measured on the test's own
   domain: Gc counters are per domain. *)
let words_per_call f =
  let calls = 100_000 in
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int calls

let check_words name bound f =
  let w = words_per_call f in
  Alcotest.(check bool) (Printf.sprintf "%s: %.3f minor words/call <= %g" name w bound) true (w <= bound)

let test_rng_allocation () =
  let rng = Prng.Rng.create 5 in
  check_words "bits" 0.01 (fun () -> ignore (Prng.Rng.bits rng));
  check_words "below 17" 0.01 (fun () -> ignore (Prng.Rng.below rng 17));
  check_words "bool" 0.01 (fun () -> ignore (Prng.Rng.bool rng))

let test_zipf_allocation () =
  let rng = Prng.Rng.create 5 in
  let z = Prng.Dist.Zipf.create ~n:40 ~s:1.2 in
  check_words "Zipf.draw n=40" 0.01 (fun () -> ignore (Prng.Dist.Zipf.draw z rng))

(* --- qcheck properties --- *)

let prop_below_in_range =
  QCheck.Test.make ~name:"below always in range" ~count:500
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, n) ->
      let rng = Prng.Rng.create seed in
      let v = Prng.Rng.below rng n in
      v >= 0 && v < n)

let prop_shuffle_preserves_multiset =
  QCheck.Test.make ~name:"shuffle preserves multiset" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, l) ->
      let rng = Prng.Rng.create seed in
      let a = Array.of_list l in
      Prng.Rng.shuffle rng a;
      List.sort compare (Array.to_list a) = List.sort compare l)

let prop_binomial_in_range =
  QCheck.Test.make ~name:"binomial in [0,n]" ~count:300
    QCheck.(triple small_int (int_range 0 5000) (float_range 0.0 1.0))
    (fun (seed, n, p) ->
      let rng = Prng.Rng.create seed in
      let v = Prng.Dist.binomial rng ~n ~p in
      v >= 0 && v <= n)

let () =
  Alcotest.run "prng"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick test_split_independent;
          Alcotest.test_case "copy" `Quick test_copy;
          Alcotest.test_case "below range" `Quick test_below_range;
          Alcotest.test_case "below uniform" `Quick test_below_uniform;
          Alcotest.test_case "float bounds" `Quick test_float_bounds;
          Alcotest.test_case "int_in" `Quick test_int_in;
          Alcotest.test_case "permutation" `Quick test_permutation;
        ] );
      ( "dist",
        [
          Alcotest.test_case "normal moments" `Quick test_normal_moments;
          Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
          Alcotest.test_case "poisson small" `Quick test_poisson_mean_small;
          Alcotest.test_case "poisson large" `Quick test_poisson_mean_large;
          Alcotest.test_case "binomial small" `Quick test_binomial_exact_small;
          Alcotest.test_case "binomial large" `Quick test_binomial_large;
          Alcotest.test_case "binomial extreme p" `Quick test_binomial_extreme_p;
          Alcotest.test_case "binomial edges" `Quick test_binomial_edges;
          Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
          Alcotest.test_case "zipf support" `Quick test_zipf_support;
          Alcotest.test_case "zipf rank-1 frequency" `Quick test_zipf_rank1_frequency;
          Alcotest.test_case "zipf n=1" `Quick test_zipf_n1;
          Alcotest.test_case "log_factorial" `Quick test_log_factorial;
          Alcotest.test_case "log_choose" `Quick test_log_choose;
        ] );
      ( "edge_cases",
        [
          Alcotest.test_case "invalid arguments" `Quick test_invalid_arguments;
          Alcotest.test_case "nan parameters" `Quick test_nan_parameters;
          Alcotest.test_case "tiny p" `Quick test_tiny_p;
          Alcotest.test_case "below 1" `Quick test_below_one_always_zero;
          Alcotest.test_case "below large n" `Quick test_below_large_n;
        ] );
      ( "alias",
        [
          Alcotest.test_case "matches weights" `Quick test_alias_matches_weights;
          Alcotest.test_case "single bucket" `Quick test_alias_single;
          Alcotest.test_case "zero weight bucket" `Quick test_alias_zero_weight;
          Alcotest.test_case "invalid input" `Quick test_alias_invalid;
        ] );
      ( "golden",
        [
          Alcotest.test_case "known answer" `Quick test_known_answer;
          Alcotest.test_case "streams" `Quick test_golden_streams;
          Alcotest.test_case "zipf table changes no draw" `Quick test_zipf_table_matches;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "rng primitives" `Quick test_rng_allocation;
          Alcotest.test_case "zipf sampler" `Quick test_zipf_allocation;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_below_in_range; prop_shuffle_preserves_multiset; prop_binomial_in_range ] );
    ]
