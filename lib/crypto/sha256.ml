(* FIPS 180-4 SHA-256 over native 32-bit lanes.

   The hash state, the message schedule and the round constants live in
   [Bytes] and are read and written as unboxed int32 through
   %caml_bytes_get32u/%caml_bytes_set32u, so the compression loop
   neither tags nor masks its words. Lanes in [h], [w] and [k] are in
   host byte order; message and digest words are big-endian, swapped
   with %bswap_int32 on little-endian hosts. *)

external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external bswap32 : int32 -> int32 = "%bswap_int32"
external big_endian : unit -> bool = "%big_endian"

let[@inline] get_be b off = if big_endian () then get32u b off else bswap32 (get32u b off)
let[@inline] set_be b off v = if big_endian () then set32u b off v else set32u b off (bswap32 v)

let lanes words =
  let b = Bytes.create (4 * Array.length words) in
  Array.iteri (fun i v -> set32u b (4 * i) (Int32.of_int v)) words;
  b

let k =
  lanes
    [|
      0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1; 0x923f82a4; 0xab1c5ed5;
      0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174;
      0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
      0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147; 0x06ca6351; 0x14292967;
      0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
      0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
      0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f; 0x682e6ff3;
      0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208; 0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
    |]

let iv =
  lanes [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]

type ctx = {
  h : Bytes.t;                    (* 8 state lanes *)
  w : Bytes.t;                    (* 64-lane message schedule scratch *)
  buf : Bytes.t;                  (* partial input block *)
  mutable buf_len : int;
  mutable total : int;            (* total bytes absorbed *)
  mutable finished : bool;
}

let init () =
  { h = Bytes.copy iv; w = Bytes.create 256; buf = Bytes.create 64; buf_len = 0; total = 0;
    finished = false }

let reset ctx =
  Bytes.blit iv 0 ctx.h 0 32;
  ctx.buf_len <- 0;
  ctx.total <- 0;
  ctx.finished <- false

let blit ~src ~dst =
  Bytes.blit src.h 0 dst.h 0 32;
  Bytes.blit src.buf 0 dst.buf 0 src.buf_len;
  dst.buf_len <- src.buf_len;
  dst.total <- src.total;
  dst.finished <- src.finished

let[@inline] rotr x n = Int32.logor (Int32.shift_right_logical x n) (Int32.shift_left x (32 - n))
let[@inline] big_sigma0 a = Int32.logxor (Int32.logxor (rotr a 2) (rotr a 13)) (rotr a 22)
let[@inline] big_sigma1 e = Int32.logxor (Int32.logxor (rotr e 6) (rotr e 11)) (rotr e 25)
let[@inline] ch e f g = Int32.logxor g (Int32.logand e (Int32.logxor f g))
let[@inline] kw w t = Int32.add (get32u k (4 * t)) (get32u w (4 * t))
let[@inline] maj a b c = Int32.logor (Int32.logand a b) (Int32.logand c (Int32.logor a b))

(* One 64-byte block at [off]. Callers check the range: every access
   below is static relative to [off] or a loop bound over the 64-lane
   schedule. The rounds are unrolled by eight so the working variables
   rename instead of shifting; each round updates only d and h of its
   rotation. *)
let compress ctx block off =
  let w = ctx.w and h = ctx.h in
  for t = 0 to 15 do
    set32u w (4 * t) (get_be block (off + (4 * t)))
  done;
  for t = 16 to 63 do
    let w15 = get32u w (4 * (t - 15)) and w2 = get32u w (4 * (t - 2)) in
    let s0 = Int32.logxor (Int32.logxor (rotr w15 7) (rotr w15 18)) (Int32.shift_right_logical w15 3) in
    let s1 = Int32.logxor (Int32.logxor (rotr w2 17) (rotr w2 19)) (Int32.shift_right_logical w2 10) in
    set32u w (4 * t)
      (Int32.add (Int32.add (get32u w (4 * (t - 16))) s0) (Int32.add (get32u w (4 * (t - 7))) s1))
  done;
  let a = ref (get32u h 0) and b = ref (get32u h 4) and c = ref (get32u h 8) in
  let d = ref (get32u h 12) and e = ref (get32u h 16) and f = ref (get32u h 20) in
  let g = ref (get32u h 24) and hh = ref (get32u h 28) in
  for i = 0 to 7 do
    let t = 8 * i in
    let t1 = Int32.add (Int32.add !hh (big_sigma1 !e)) (Int32.add (ch !e !f !g) (kw w t)) in
    d := Int32.add !d t1;
    hh := Int32.add t1 (Int32.add (big_sigma0 !a) (maj !a !b !c));
    let t1 = Int32.add (Int32.add !g (big_sigma1 !d)) (Int32.add (ch !d !e !f) (kw w (t + 1))) in
    c := Int32.add !c t1;
    g := Int32.add t1 (Int32.add (big_sigma0 !hh) (maj !hh !a !b));
    let t1 = Int32.add (Int32.add !f (big_sigma1 !c)) (Int32.add (ch !c !d !e) (kw w (t + 2))) in
    b := Int32.add !b t1;
    f := Int32.add t1 (Int32.add (big_sigma0 !g) (maj !g !hh !a));
    let t1 = Int32.add (Int32.add !e (big_sigma1 !b)) (Int32.add (ch !b !c !d) (kw w (t + 3))) in
    a := Int32.add !a t1;
    e := Int32.add t1 (Int32.add (big_sigma0 !f) (maj !f !g !hh));
    let t1 = Int32.add (Int32.add !d (big_sigma1 !a)) (Int32.add (ch !a !b !c) (kw w (t + 4))) in
    hh := Int32.add !hh t1;
    d := Int32.add t1 (Int32.add (big_sigma0 !e) (maj !e !f !g));
    let t1 = Int32.add (Int32.add !c (big_sigma1 !hh)) (Int32.add (ch !hh !a !b) (kw w (t + 5))) in
    g := Int32.add !g t1;
    c := Int32.add t1 (Int32.add (big_sigma0 !d) (maj !d !e !f));
    let t1 = Int32.add (Int32.add !b (big_sigma1 !g)) (Int32.add (ch !g !hh !a) (kw w (t + 6))) in
    f := Int32.add !f t1;
    b := Int32.add t1 (Int32.add (big_sigma0 !c) (maj !c !d !e));
    let t1 = Int32.add (Int32.add !a (big_sigma1 !f)) (Int32.add (ch !f !g !hh) (kw w (t + 7))) in
    e := Int32.add !e t1;
    a := Int32.add t1 (Int32.add (big_sigma0 !b) (maj !b !c !d))
  done;
  set32u h 0 (Int32.add (get32u h 0) !a);
  set32u h 4 (Int32.add (get32u h 4) !b);
  set32u h 8 (Int32.add (get32u h 8) !c);
  set32u h 12 (Int32.add (get32u h 12) !d);
  set32u h 16 (Int32.add (get32u h 16) !e);
  set32u h 20 (Int32.add (get32u h 20) !f);
  set32u h 24 (Int32.add (get32u h 24) !g);
  set32u h 28 (Int32.add (get32u h 28) !hh)

let check_open ctx =
  if ctx.finished then invalid_arg "Sha256.update: context already finalized"

let update_bytes ctx src off len =
  if off < 0 || len < 0 || off > Bytes.length src - len then invalid_arg "Sha256.update_bytes";
  check_open ctx;
  ctx.total <- ctx.total + len;
  let stop = off + len in
  let pos = ref off in
  (* Fill a partial block first. *)
  if ctx.buf_len > 0 then begin
    let take = min (64 - ctx.buf_len) len in
    Bytes.blit src off ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := off + take;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  (* Whole blocks straight from the input. *)
  while stop - !pos >= 64 do
    compress ctx src !pos;
    pos := !pos + 64
  done;
  if !pos < stop then begin
    Bytes.blit src !pos ctx.buf 0 (stop - !pos);
    ctx.buf_len <- stop - !pos
  end

let update ctx s = update_bytes ctx (Bytes.unsafe_of_string s) 0 (String.length s)

let update_be32 ctx v =
  check_open ctx;
  let n = ctx.buf_len in
  ctx.total <- ctx.total + 4;
  if n <= 60 then begin
    set_be ctx.buf n (Int32.of_int v);
    if n = 60 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
    else ctx.buf_len <- n + 4
  end
  else begin
    (* the word straddles the block boundary *)
    let take = 64 - n in
    for i = 0 to take - 1 do
      Bytes.unsafe_set ctx.buf (n + i) (Char.unsafe_chr ((v lsr (8 * (3 - i))) land 0xff))
    done;
    compress ctx ctx.buf 0;
    for i = take to 3 do
      Bytes.unsafe_set ctx.buf (i - take) (Char.unsafe_chr ((v lsr (8 * (3 - i))) land 0xff))
    done;
    ctx.buf_len <- 4 - take
  end

(* Padding is written into the block buffer: 0x80, zeros, then the
   64-bit big-endian bit length in the last eight bytes, spilling into
   one more block when fewer than nine bytes are free. *)
let finalize_into ctx out off =
  if off < 0 || off > Bytes.length out - 32 then invalid_arg "Sha256.finalize_into";
  if ctx.finished then invalid_arg "Sha256.finalize: context already finalized";
  ctx.finished <- true;
  let buf = ctx.buf and n = ctx.buf_len in
  Bytes.unsafe_set buf n '\x80';
  if n >= 56 then begin
    Bytes.fill buf (n + 1) (63 - n) '\x00';
    compress ctx buf 0;
    Bytes.fill buf 0 56 '\x00'
  end
  else Bytes.fill buf (n + 1) (55 - n) '\x00';
  let bits = ctx.total lsl 3 in
  set_be buf 56 (Int32.of_int (bits lsr 32));
  set_be buf 60 (Int32.of_int bits);
  compress ctx buf 0;
  ctx.buf_len <- 0;
  for i = 0 to 7 do
    set_be out (off + (4 * i)) (get32u ctx.h (4 * i))
  done

let finalize ctx =
  let out = Bytes.create 32 in
  finalize_into ctx out 0;
  Bytes.unsafe_to_string out

let digest s =
  let ctx = init () in
  update ctx s;
  finalize ctx

let hex_digits = "0123456789abcdef"

let to_hex s =
  let out = Bytes.create (2 * String.length s) in
  String.iteri
    (fun i c ->
      let v = Char.code c in
      Bytes.unsafe_set out (2 * i) hex_digits.[v lsr 4];
      Bytes.unsafe_set out ((2 * i) + 1) hex_digits.[v land 0xf])
    s;
  Bytes.unsafe_to_string out

let hex s = to_hex (digest s)
