type error =
  | Truncated
  | Bad_magic
  | Unsupported_version of int
  | Trailing of int
  | Invalid of string

let error_to_string = function
  | Truncated -> "truncated input"
  | Bad_magic -> "bad magic"
  | Unsupported_version v -> Printf.sprintf "unsupported version %d" v
  | Trailing n -> Printf.sprintf "%d trailing bytes" n
  | Invalid msg -> Printf.sprintf "invalid: %s" msg

(* Internal control flow for readers; both are caught in [decode] and
   never cross the API boundary. *)
exception Short
exception Fail of string
exception Version of int

module W = struct
  type t = Buffer.t

  let create () = Buffer.create 256
  let u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

  let varint b v =
    if v < 0 then invalid_arg "Codec.W.varint: negative";
    let rec go v =
      if v < 0x80 then Buffer.add_char b (Char.chr v)
      else begin
        Buffer.add_char b (Char.chr (0x80 lor (v land 0x7f)));
        go (v lsr 7)
      end
    in
    go v

  let zint b v = varint b ((v lsl 1) lxor (v asr 62))
  let f64 b v = Buffer.add_int64_be b (Int64.bits_of_float v)

  let bytes b s =
    varint b (String.length s);
    Buffer.add_string b s

  let magic b s = Buffer.add_string b s
  let contents b = Buffer.contents b
end

module R = struct
  type t = { src : string; mutable pos : int }

  let u8 r =
    if r.pos >= String.length r.src then raise Short;
    let v = Char.code r.src.[r.pos] in
    r.pos <- r.pos + 1;
    v

  let varint r =
    let rec go acc shift =
      (* OCaml ints are 63-bit and the writer refuses negatives: more
         than nine 7-bit groups, or a ninth group that sets the sign
         bit, cannot be a value we wrote, so treat it as malformed
         rather than hand a negative length to the caller. *)
      if shift > 62 then raise (Fail "varint overflow");
      let byte = u8 r in
      let acc = acc lor ((byte land 0x7f) lsl shift) in
      if byte land 0x80 <> 0 then go acc (shift + 7)
      else if acc < 0 then raise (Fail "varint overflow")
      else acc
    in
    go 0 0

  let zint r =
    let v = varint r in
    (v lsr 1) lxor (-(v land 1))

  let f64 r =
    if r.pos + 8 > String.length r.src then raise Short;
    let v = Int64.float_of_bits (String.get_int64_be r.src r.pos) in
    r.pos <- r.pos + 8;
    v

  let bytes r =
    let n = varint r in
    if n < 0 || r.pos + n > String.length r.src then raise Short;
    let s = String.sub r.src r.pos n in
    r.pos <- r.pos + n;
    s

  let magic r expect =
    let n = String.length expect in
    if r.pos + n > String.length r.src then raise Short;
    if String.sub r.src r.pos n <> expect then raise (Fail "magic");
    r.pos <- r.pos + n

  let fail msg = raise (Fail msg)
  let fail_version v = raise (Version v)
  let remaining r = String.length r.src - r.pos
end

let decode src reader =
  let r = { R.src; pos = 0 } in
  match reader r with
  | v ->
      let rest = R.remaining r in
      if rest = 0 then Ok v else Error (Trailing rest)
  | exception Short -> Error Truncated
  | exception Fail "magic" -> Error Bad_magic
  | exception Fail msg -> Error (Invalid msg)
  | exception Version v -> Error (Unsupported_version v)
