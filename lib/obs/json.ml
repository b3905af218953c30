(* The one JSON codec behind every artifact the repo writes or audits:
   run ledgers, trace spans, metric snapshots, torlint JSON/SARIF and
   BENCH files. Strings are byte strings — the writer escapes only '"',
   '\\' and bytes below 0x20, the reader keeps raw bytes as they are —
   so any byte content round-trips. The reader is total: every failure
   is an [Error], including nesting deep enough to exhaust the stack. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* --- writing --- *)

let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Shortest decimal that round-trips, so a reader reconstructs every
   recorded quantity bit for bit. *)
let float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else
    let s = Printf.sprintf "%.15g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v

let to_string ?(float = float) v =
  let b = Buffer.create 256 in
  let seq open_ close add items =
    Buffer.add_char b open_;
    List.iteri (fun i x -> if i > 0 then Buffer.add_char b ','; add x) items;
    Buffer.add_char b close
  in
  let rec add = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Num x -> Buffer.add_string b (float x)
    | Str s -> Buffer.add_string b (quote s)
    | Arr items -> seq '[' ']' add items
    | Obj fields ->
      seq '{' '}' (fun (k, x) -> Buffer.add_string b (quote k ^ ":"); add x) fields
  in
  add v;
  Buffer.contents b

(* --- reading --- *)

exception Bad of int * string

let max_depth = 512

let of_string text =
  let n = String.length text and pos = ref 0 in
  let fail msg = raise (Bad (!pos, msg)) in
  let at c = !pos < n && text.[!pos] = c in
  let rec skip_ws () = if at ' ' || at '\t' || at '\n' || at '\r' then (incr pos; skip_ws ()) in
  let expect c = if at c then incr pos else fail (Printf.sprintf "expected '%c'" c) in
  let literal word v =
    let m = String.length word in
    if !pos + m <= n && String.sub text !pos m = word then (pos := !pos + m; v)
    else fail "bad literal"
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let digit i =
      match text.[!pos + i] with
      | '0' .. '9' as c -> Char.code c - Char.code '0'
      | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
      | _ -> fail "bad \\u escape"
    in
    let code = (digit 0 lsl 12) lor (digit 1 lsl 8) lor (digit 2 lsl 4) lor digit 3 in
    pos := !pos + 4;
    code
  in
  (* one \uXXXX escape, or two forming a surrogate pair *)
  let code_point () =
    let hi = hex4 () in
    if hi < 0xD800 || hi > 0xDFFF then hi
    else if hi > 0xDBFF || not (at '\\' && !pos + 1 < n && text.[!pos + 1] = 'u') then
      fail "unpaired surrogate"
    else begin
      pos := !pos + 2;
      let lo = hex4 () in
      if lo < 0xDC00 || lo > 0xDFFF then fail "unpaired surrogate";
      0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
    end
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = text.[!pos] in
      incr pos;
      if c = '"' then Buffer.contents b
      else begin
        (if c <> '\\' then Buffer.add_char b c
         else begin
           if !pos >= n then fail "unterminated escape";
           incr pos;
           match text.[!pos - 1] with
           | ('"' | '\\' | '/') as e -> Buffer.add_char b e
           | 'b' -> Buffer.add_char b '\b'
           | 'f' -> Buffer.add_char b '\012'
           | 'n' -> Buffer.add_char b '\n'
           | 'r' -> Buffer.add_char b '\r'
           | 't' -> Buffer.add_char b '\t'
           | 'u' -> Buffer.add_utf_8_uchar b (Uchar.of_int (code_point ()))
           | _ -> fail "bad escape"
         end);
        go ()
      end
    in
    go ()
  in
  let number () =
    let start = !pos in
    while !pos < n && String.contains "0123456789+-.eE" text.[!pos] do
      incr pos
    done;
    match float_of_string_opt (String.sub text start (!pos - start)) with
    | Some v -> Num v
    | None -> pos := start; fail "bad number"
  in
  (* items up to [close], comma-separated; the opening bracket is consumed *)
  let seq close item =
    skip_ws ();
    if at close then (incr pos; [])
    else
      let rec go acc =
        let acc = item () :: acc in
        skip_ws ();
        if at ',' then (incr pos; go acc) else (expect close; List.rev acc)
      in
      go []
  in
  let rec value depth =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match text.[!pos] with
    | '"' -> Str (string_lit ())
    | '{' ->
      incr pos;
      Obj
        (seq '}' (fun () ->
             skip_ws ();
             let k = string_lit () in
             skip_ws ();
             expect ':';
             (k, value (depth + 1))))
    | '[' -> incr pos; Arr (seq ']' (fun () -> value (depth + 1)))
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> number ()
    | _ -> fail "unexpected character"
  in
  match value 0 with
  | v ->
    skip_ws ();
    if !pos < n then Error (Printf.sprintf "trailing characters at offset %d" !pos) else Ok v
  | exception Bad (offset, msg) -> Error (Printf.sprintf "%s at offset %d" msg offset)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None
