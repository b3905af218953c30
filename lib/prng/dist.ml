(* [Rng.float] and [Rng.float_pos] from [Rng.bits] (rng.mli): a float
   returned across a module boundary is boxed, an int is not. *)
let[@inline] uniform rng = float_of_int (Rng.bits rng lsr 9) *. 0x1.0p-53
let[@inline] uniform_pos rng = 1.0 -. uniform rng

let normal rng ~mu ~sigma =
  (* Marsaglia polar method; one of the pair is discarded to keep the
     generator stateless apart from the RNG. *)
  let u = ref 0.0 and s = ref 0.0 in
  while !s >= 1.0 || !s = 0.0 do
    let x = (2.0 *. uniform rng) -. 1.0 in
    let y = (2.0 *. uniform rng) -. 1.0 in
    u := x;
    s := (x *. x) +. (y *. y)
  done;
  mu +. (sigma *. (!u *. sqrt (-2.0 *. log !s /. !s)))

let exponential rng ~rate =
  if not (rate > 0.0) then invalid_arg "Dist.exponential: rate must be positive";
  -.log (uniform_pos rng) /. rate

let poisson_small rng lambda =
  let l = exp (-.lambda) in
  let k = ref 0 and p = ref (uniform rng) in
  while !p > l do
    incr k;
    p := !p *. uniform rng
  done;
  !k

let poisson rng ~lambda =
  if Float.is_nan lambda then invalid_arg "Dist.poisson: lambda is NaN";
  if lambda < 0.0 then invalid_arg "Dist.poisson: negative lambda";
  if lambda = 0.0 then 0
  else if lambda < 30.0 then poisson_small rng lambda
  else
    (* Normal approximation with continuity correction; adequate for the
       workload generator where lambda is large. *)
    let x = normal rng ~mu:lambda ~sigma:(sqrt lambda) in
    max 0 (int_of_float (Float.round x))

(* ln (1 - p), also where 1 - p rounds to 1 and [log] would give 0. *)
let log1m p = if 1.0 -. p = 1.0 then Float.log1p (-.p) else log (1.0 -. p)

(* Failures before the first success, given [log1q] = ln (1 - q) < 0;
   saturates at max_int for the tiniest q. *)
let skip rng log1q =
  let x = log (uniform_pos rng) /. log1q in
  if x < 0x1p62 then int_of_float x else max_int

let binomial rng ~n ~p =
  if n < 0 then invalid_arg "Dist.binomial: negative n";
  if not (p >= 0.0 && p <= 1.0) then invalid_arg "Dist.binomial: p outside [0,1]";
  if n = 0 || p = 0.0 then 0
  else if p = 1.0 then n
  else if n <= 64 then begin
    let count = ref 0 in
    for _ = 1 to n do
      if uniform rng < p then incr count
    done;
    !count
  end
  else
    let mean = float_of_int n *. p in
    let var = mean *. (1.0 -. p) in
    if var < 25.0 then begin
      (* Moderate n with extreme p: exact via geometric skipping. *)
      let q = if p <= 0.5 then p else 1.0 -. p in
      let log1q = log1m q in
      let count = ref 0 and i = ref 0 in
      while !i < n do
        (* the next success is trial i + k + 1, if that is within n *)
        let k = skip rng log1q in
        if k < n - !i then (incr count; i := !i + k + 1) else i := n
      done;
      if p <= 0.5 then !count else n - !count
    end
    else
      let x = normal rng ~mu:mean ~sigma:(sqrt var) in
      min n (max 0 (int_of_float (Float.round x)))

let geometric rng ~p =
  if not (p > 0.0 && p <= 1.0) then invalid_arg "Dist.geometric: p outside (0,1]";
  if p = 1.0 then 0 else skip rng (log1m p)

(* Rejection-inversion sampling for the Zipf distribution (Hörmann &
   Derflinger 1996). Exact and O(1) amortized even for n = 10^6. *)
module Zipf = struct
  type t = {
    n : int;
    s : float;
    hx0 : float;
    hn : float;
    (* [accept.(k - 1)] = h (k + 0.5) - k^-s, the acceptance bound of
       rank k, for n <= [table_max]; empty otherwise *)
    accept : float array;
  }

  let table_max = 65_536

  let[@inline] h s x = if s = 1.0 then log x else (x ** (1.0 -. s)) /. (1.0 -. s)
  let[@inline] h_inv s x = if s = 1.0 then exp x else ((1.0 -. s) *. x) ** (1.0 /. (1.0 -. s))
  let[@inline] bound s k = h s (k +. 0.5) -. (k ** -.s)

  let make ~table ~n ~s =
    if n < 1 then invalid_arg "Dist.zipf: n must be >= 1";
    if not (s > 0.0) then invalid_arg "Dist.zipf: s must be positive";
    let accept =
      if table && n <= table_max then Array.init n (fun i -> bound s (float_of_int (i + 1)))
      else [||]
    in
    { n; s; hx0 = h s 0.5 -. 1.0; hn = h s (float_of_int n +. 0.5); accept }

  let create ~n ~s = make ~table:true ~n ~s

  let draw t rng =
    if t.n = 1 then 1
    else begin
      let nf = float_of_int t.n and s = t.s and tabled = Array.length t.accept > 0 in
      let k = ref 0 in
      while !k = 0 do
        let u = t.hx0 +. (uniform rng *. (t.hn -. t.hx0)) in
        let x = Float.round (h_inv s u) in
        let x = if x < 1.0 then 1.0 else if x > nf then nf else x in
        (* For s < 1, u < 0 is possible and makes [h_inv] NaN, which
           [bound] rejects; the table must reject it too. *)
        let accepted =
          if tabled then (not (Float.is_nan x)) && u >= t.accept.(int_of_float x - 1)
          else u >= bound s x
        in
        if accepted then k := int_of_float x
      done;
      !k
    end
end

let zipf rng ~n ~s = Zipf.draw (Zipf.make ~table:false ~n ~s) rng

let zipf_weights ~n ~s = Array.init n (fun i -> (float_of_int (i + 1)) ** -.s)

let log_factorial =
  let table = lazy (
    let t = Array.make 257 0.0 in
    for i = 2 to 256 do
      t.(i) <- t.(i - 1) +. log (float_of_int i)
    done;
    t)
  in
  fun n ->
    if n < 0 then invalid_arg "Dist.log_factorial: negative argument";
    if n <= 256 then (Lazy.force table).(n)
    else
      (* Stirling series with 1/(12n) correction: error < 1e-10 for n > 256. *)
      let x = float_of_int n in
      (x +. 0.5) *. log x -. x +. (0.5 *. log (2.0 *. Float.pi)) +. (1.0 /. (12.0 *. x))

let log_choose n k =
  if k < 0 || k > n then neg_infinity
  else log_factorial n -. log_factorial k -. log_factorial (n - k)
