(* HMAC-DRBG (NIST SP 800-90A) over HMAC-SHA256. The key is held as a
   precomputed [Hmac.keyed] midstate: each key serves several HMAC calls
   before the next rekey, so caching the ipad/opad block compressions
   drops a DRBG draw from 12 SHA-256 compressions to 8. V is expanded
   in place: every HMAC call writes into [v] or [k] and every rekey
   overwrites the same [keyed], so a draw allocates nothing but its
   result. Output is byte-identical to the naive formulation (locked by
   the RFC 4231 vectors and the stream known answers). *)

type t = {
  key : Hmac.keyed;
  v : Bytes.t;  (* V in bytes 0..31; byte 32 holds the update separator *)
  k : Bytes.t;  (* the next key *)
}

(* K = HMAC(K, V || sep || provided); V = HMAC(K, V). *)
let step t sep provided =
  if provided = "" then begin
    Bytes.set t.v 32 sep;
    Hmac.mac_into t.key t.v 0 33 t.k 0
  end
  else begin
    let material = Bytes.sub_string t.v 0 32 ^ String.make 1 sep ^ provided in
    Hmac.mac_into t.key (Bytes.unsafe_of_string material) 0 (String.length material) t.k 0
  end;
  Hmac.rekey t.key t.k 0 32;
  Hmac.mac_into t.key t.v 0 32 t.v 0

let update t provided =
  step t '\x00' provided;
  if provided <> "" then step t '\x01' provided

let create ?(personalization = "") seed =
  let t = { key = Hmac.keyed (String.make 32 '\x00'); v = Bytes.make 33 '\x01'; k = Bytes.create 32 } in
  update t (seed ^ personalization);
  t

let reseed t entropy = update t entropy

(* V = HMAC(K, V): the next 32 bytes of output, left in [t.v]. *)
let next_block t = Hmac.mac_into t.key t.v 0 32 t.v 0

let generate t n =
  if n < 0 then invalid_arg "Drbg.generate: negative length";
  let out = Bytes.create n in
  let pos = ref 0 in
  while !pos < n do
    next_block t;
    let take = min 32 (n - !pos) in
    Bytes.blit t.v 0 out !pos take;
    pos := !pos + take
  done;
  update t "";
  Bytes.unsafe_to_string out

let uniform64 t =
  next_block t;
  let v = Bytes.get_int64_be t.v 0 in
  update t "";
  v

(* Top 62 bits of the 8-byte big-endian lane at [off], as a
   non-negative int, and the 4-byte lane at [off] as an int in
   [0, 2^32). *)
let lane62 b off = Int64.to_int (Int64.shift_right_logical (Bytes.get_int64_be b off) 2)
let lane32 b off = Int32.to_int (Bytes.get_int32_be b off) land 0xFFFF_FFFF

(* Rejection limits: the largest lane value whose residue mod [n] is
   unbiased, for 62-bit ([0, max_int]; the space size 2^62 itself is
   not representable) and 32-bit lanes. *)
let limit62 n = max_int - (((max_int mod n) + 1) mod n)

let two30 = 1 lsl 30
let two32 = 1 lsl 32
let limit32 n = two32 - 1 - (two32 mod n)

let uniform t n =
  if n <= 0 then invalid_arg "Drbg.uniform: n must be positive";
  let limit = limit62 n in
  let rec draw () =
    next_block t;
    let v = lane62 t.v 0 in
    update t "";
    if v <= limit then v mod n else draw ()
  in
  draw ()

(* Bulk draws. One HMAC output block yields 16 bytes of stream per
   SHA-256 compression; a [uniform] call spends ~8 compressions for the
   same 8 bytes because every call pays the post-generate state update.
   Batching [count] draws into one generate therefore costs ~1/16th the
   hashing of [count] singles.

   Lanes are 4 bytes when every bound fits 30 bits (all protocol
   bounds: q < 2^30, permutation indices, coin flips) and 8 bytes
   otherwise. Rejection sampling still makes each lane exactly
   uniform; a rejected lane falls back to fresh single draws, which
   keeps the stream consumption deterministic for a fixed seed. Bulk
   draws consume the stream differently from the same number of
   [uniform] calls — callers pick one pattern per draw site and keep
   it (the determinism contract is about program order, not byte
   equivalence; see DESIGN.md §3c).

   The lanes are read straight out of each V block: the bytes are those
   one [generate t (lane_bytes * count)] returns. A rejected lane is
   marked and redrawn only after that generate's state update, in index
   order — where the single draws of the buffered form fell. *)
let fill_lanes t ~wide bound count =
  let out = Array.make count 0 in
  let lane_bytes = if wide then 8 else 4 in
  let rejected = ref false in
  let i = ref 0 in
  while !i < count do
    next_block t;
    let first = !i in
    let stop = min count (first + (32 / lane_bytes)) in
    for j = first to stop - 1 do
      let n = bound j in
      let off = (j - first) * lane_bytes in
      let v = if wide then lane62 t.v off else lane32 t.v off in
      if v <= (if wide then limit62 n else limit32 n) then out.(j) <- v mod n
      else begin
        out.(j) <- -1;
        rejected := true
      end
    done;
    i := stop
  done;
  update t "";
  if !rejected then
    for j = 0 to count - 1 do
      if out.(j) < 0 then out.(j) <- uniform t (bound j)
    done;
  out

let uniform_lanes t bound count =
  if count < 0 then invalid_arg "Drbg.uniform_lanes: negative count";
  if count = 0 then [||]
  else begin
    let wide = ref false in
    for i = 0 to count - 1 do
      let n = bound i in
      if n <= 0 then invalid_arg "Drbg.uniform_lanes: bound must be positive";
      if n > two30 then wide := true
    done;
    fill_lanes t ~wide:!wide bound count
  end

let uniform_array t n count =
  if n <= 0 then invalid_arg "Drbg.uniform_array: n must be positive";
  if count < 0 then invalid_arg "Drbg.uniform_array: negative count";
  if count = 0 then [||] else fill_lanes t ~wide:(n > two30) (fun _ -> n) count
