let block_size = 64

(* Precomputed key state: the SHA-256 midstates after absorbing the
   ipad- and opad-masked key blocks. Computing HMAC from a [keyed]
   costs two compressions (message + wrapped digest) instead of four;
   HMAC-DRBG reuses each key for several calls, so the two key-block
   compressions amortise away. [work] and [pad] are scratch, so a MAC
   or a rekey allocates nothing. *)
type keyed = {
  inner : Sha256.ctx;
  outer : Sha256.ctx;
  work : Sha256.ctx;
  pad : Bytes.t;  (* the masked key block, then the inner digest *)
}

let absorb_masked pad key off len fill ctx =
  for i = 0 to block_size - 1 do
    let c = if i < len then Char.code (Bytes.unsafe_get key (off + i)) else 0 in
    Bytes.unsafe_set pad i (Char.unsafe_chr (c lxor fill))
  done;
  Sha256.reset ctx;
  Sha256.update_bytes ctx pad 0 block_size

let rekey k key off len =
  if off < 0 || len < 0 || len > block_size || off > Bytes.length key - len then
    invalid_arg "Hmac.rekey";
  absorb_masked k.pad key off len 0x36 k.inner;
  absorb_masked k.pad key off len 0x5c k.outer

let keyed key =
  let key = if String.length key > block_size then Sha256.digest key else key in
  let k =
    { inner = Sha256.init (); outer = Sha256.init (); work = Sha256.init ();
      pad = Bytes.create block_size }
  in
  rekey k (Bytes.unsafe_of_string key) 0 (String.length key);
  k

let mac_into k msg off len out out_off =
  let work = k.work in
  Sha256.blit ~src:k.inner ~dst:work;
  Sha256.update_bytes work msg off len;
  Sha256.finalize_into work k.pad 0;
  Sha256.blit ~src:k.outer ~dst:work;
  Sha256.update_bytes work k.pad 0 32;
  Sha256.finalize_into work out out_off

let sha256 ~key msg =
  let out = Bytes.create 32 in
  mac_into (keyed key) (Bytes.unsafe_of_string msg) 0 (String.length msg) out 0;
  Bytes.unsafe_to_string out

let hex ~key msg = Sha256.to_hex (sha256 ~key msg)
