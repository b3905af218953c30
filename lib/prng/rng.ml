(* xoshiro256** (Blackman & Vigna 2018), period 2^256 - 1. The state is
   32 unboxed bytes: [mutable int64] fields would box on every store.
   [next] lives here and is [@inline]: without flambda, ocamlopt does not
   inline across modules, and [bits] would box its result again. *)

type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let create seed =
  let t = Bytes.create 32 in
  Array.iteri (fun i w -> set t (8 * i) w) (Splitmix64.expand (Int64.of_int seed) 4);
  t

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] next t =
  let s0 = get t 0 and s1 = get t 8 and s2 = get t 16 and s3 = get t 24 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  set t 8 (Int64.logxor s1 s2);
  set t 0 (Int64.logxor s0 s3);
  set t 16 (Int64.logxor s2 (Int64.shift_left s1 17));
  set t 24 (rotl s3 45);
  result

(* Long-jump polynomial: advances the stream by 2^192 steps, used to derive
   independent substreams for parallel components of the simulation. *)
let long_jump_poly = [| 0x76e15d3efefdcbbfL; 0xc5004e441c522fb3L; 0x77710069854ee241L; 0x39109bb02acbe635L |]

let long_jump t =
  let acc = Bytes.make 32 '\000' in
  Array.iter
    (fun jump ->
      for b = 0 to 63 do
        if Int64.logand jump (Int64.shift_left 1L b) <> 0L then
          for w = 0 to 3 do
            set acc (8 * w) (Int64.logxor (get acc (8 * w)) (get t (8 * w)))
          done;
        ignore (next t)
      done)
    long_jump_poly;
  Bytes.blit acc 0 t 0 32

let copy = Bytes.copy

(* A fresh generator whose stream is independent of [t]'s future output. *)
let split t =
  let child = copy t in
  long_jump t;
  child

let int64 t = next t

let[@inline] bits t = Int64.to_int (Int64.shift_right_logical (next t) 2)

let below t n =
  if n <= 0 then invalid_arg "Rng.below: n must be positive";
  (* Rejection sampling over 62-bit words to avoid modulo bias. The
     sample space is [0, max_int] = [0, 2^62); its size 2^62 is not
     representable, so the acceptance bound is phrased via max_int. *)
  let rem = ((max_int mod n) + 1) mod n in
  let limit = max_int - rem in
  let v = ref (bits t) in
  while !v > limit do
    v := bits t
  done;
  !v mod n

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + below t (hi - lo + 1)

(* 53 uniform bits into [0,1): the top 53 bits of [next], which are
   [bits t lsr 9]. *)
let[@inline] float t = float_of_int (bits t lsr 9) *. 0x1.0p-53

let float_pos t = 1.0 -. float t
let bool t = Int64.logand (next t) 1L = 1L
let bernoulli t p = float t < p

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = below t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  a

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(below t (Array.length a))

let bytes t n =
  String.init n (fun _ -> Char.chr (below t 256))
