(* Binary event-trace record/replay.

   One segment per netday shard: a Bus.Codec header (provenance,
   recorded tallies, interned string tables, SHA-256 payload checksum)
   followed by varint-delta event records. The writer interns every
   country and hostname/onion address on first sight; records then
   carry only small integers, with client ip / asn / port / host id
   encoded as zigzag deltas against the previous record's values, so
   the common event costs 2-5 bytes. Replay decodes the payload in
   place into one reused mutable view, which is what lets ingestion
   benchmarks run at 100M+ events (DESIGN.md §3f). The decoder builds
   no closures and inlines the one-byte varint; what it still
   allocates is the boxed byte volume of entry/exit records, about
   0.56 B/event on the replay-ingest day. *)

type error = Bus.Codec.error

let error_to_string = Bus.Codec.error_to_string

exception Error of error

type mismatch = { shard : int; what : string; expected : int; got : int }

exception Mismatch of mismatch

let mismatch_to_string m =
  Printf.sprintf "shard %s: %s mismatch: recorded %d, replayed %d"
    (if m.shard < 0 then "merge" else string_of_int m.shard)
    m.what m.expected m.got

type meta = {
  seed : int;
  shard : int;
  shards : int;
  config : (string * int) list;
}

let meta_equal_recording a b =
  a.seed = b.seed && a.shards = b.shards && a.config = b.config

let magic = "TMT"
let version = 1

(* --- record tags ---

   Stream destinations and fetch results are folded into the tag so a
   record is a tag byte plus only the fields that vary. Entry/exit byte
   volumes are floats in torsim; the integral common case is written as
   a varint, the general case as raw IEEE bits (exact round-trip). *)

let t_connection = 0
let t_circuit_data = 1
let t_circuit_dir = 2
let t_dir_request = 3
let t_entry_bytes_i = 4
let t_entry_bytes_f = 5
let t_exit_bytes_i = 6
let t_exit_bytes_f = 7
let t_stream_init_host = 8
let t_stream_init_v4 = 9
let t_stream_init_v6 = 10
let t_stream_sub_host = 11
let t_stream_sub_v4 = 12
let t_stream_sub_v6 = 13
let t_desc_published = 14
let t_desc_fetch_ok = 15
let t_desc_fetch_missing = 16
let t_desc_fetch_malformed = 17
let t_rend_success = 18
let t_rend_closed = 19
let t_rend_expired = 20

(* a float that round-trips through varint: non-negative, integral,
   comfortably inside the 62-bit varint budget *)
let integral_float v =
  v >= 0.0 && v < 0x1p60 && Float.is_integer v

(* --- interning tables (insertion order IS id order) --- *)

module Intern = struct
  type t = {
    ids : (string, int) Hashtbl.t;
    mutable items : string list;  (* reversed *)
    mutable count : int;
  }

  let create () = { ids = Hashtbl.create 64; items = []; count = 0 }

  let id t s =
    match Hashtbl.find_opt t.ids s with
    | Some i -> i
    | None ->
      let i = t.count in
      Hashtbl.add t.ids s i;
      t.items <- s :: t.items;
      t.count <- i + 1;
      i

  let to_array t = Array.of_list (List.rev t.items)
end

(* --- header/segment encoding (Bus.Codec) --- *)

(* The segment is written in one exact-size allocation: header fields,
   then the checksum, then the payload, which [write_payload dst off]
   copies into place and which is hashed where it lands, so the payload
   is copied once, from its source into the segment. *)
let encode_segment ~meta ~tallies ~countries ~hosts ~events ~payload_len ~write_payload =
  let w = Bus.Codec.W.create () in
  Bus.Codec.W.magic w magic;
  Bus.Codec.W.u8 w version;
  Bus.Codec.W.zint w meta.seed;
  Bus.Codec.W.varint w meta.shard;
  Bus.Codec.W.varint w meta.shards;
  Bus.Codec.W.varint w (List.length meta.config);
  List.iter
    (fun (k, v) ->
      Bus.Codec.W.bytes w k;
      Bus.Codec.W.zint w v)
    meta.config;
  Bus.Codec.W.varint w (List.length tallies);
  List.iter
    (fun (k, v) ->
      Bus.Codec.W.bytes w k;
      Bus.Codec.W.zint w v)
    tallies;
  Bus.Codec.W.varint w (Array.length countries);
  Array.iter (fun s -> Bus.Codec.W.bytes w s) countries;
  Bus.Codec.W.varint w (Array.length hosts);
  Array.iter (fun s -> Bus.Codec.W.bytes w s) hosts;
  Bus.Codec.W.varint w events;
  (* the checksum field's length prefix; its 32 bytes follow *)
  Bus.Codec.W.varint w 32;
  let header = Bus.Codec.W.contents w in
  let length_prefix =
    let p = Bus.Codec.W.create () in
    Bus.Codec.W.varint p payload_len;
    Bus.Codec.W.contents p
  in
  let checksum_off = String.length header in
  let payload_off = checksum_off + 32 + String.length length_prefix in
  let out = Bytes.create (payload_off + payload_len) in
  Bytes.blit_string header 0 out 0 checksum_off;
  Bytes.blit_string length_prefix 0 out (checksum_off + 32) (String.length length_prefix);
  write_payload out payload_off;
  let ctx = Crypto.Sha256.init () in
  Crypto.Sha256.update_bytes ctx out payload_off payload_len;
  Crypto.Sha256.finalize_into ctx out checksum_off;
  Bytes.unsafe_to_string out

module Segment = struct
  type t = {
    meta : meta;
    tallies : (string * int) list;
    countries : string array;
    hosts : string array;
    events : int;
    payload : string;
  }

  let decode src =
    Bus.Codec.decode src (fun r ->
        Bus.Codec.R.magic r magic;
        let v = Bus.Codec.R.u8 r in
        if v <> version then Bus.Codec.R.fail_version v;
        let seed = Bus.Codec.R.zint r in
        let shard = Bus.Codec.R.varint r in
        let shards = Bus.Codec.R.varint r in
        if shards < 1 then Bus.Codec.R.fail "shard count must be positive";
        if shard >= shards then Bus.Codec.R.fail "shard index out of range";
        let pairs () =
          let n = Bus.Codec.R.varint r in
          List.init n (fun _ ->
              let k = Bus.Codec.R.bytes r in
              let v = Bus.Codec.R.zint r in
              (k, v))
        in
        let config = pairs () in
        let tallies = pairs () in
        let table () =
          let n = Bus.Codec.R.varint r in
          Array.init n (fun _ -> Bus.Codec.R.bytes r)
        in
        let countries = table () in
        let hosts = table () in
        let events = Bus.Codec.R.varint r in
        let checksum = Bus.Codec.R.bytes r in
        if String.length checksum <> 32 then Bus.Codec.R.fail "checksum must be 32 bytes";
        let payload = Bus.Codec.R.bytes r in
        if not (String.equal (Crypto.Sha256.digest payload) checksum) then
          Bus.Codec.R.fail "payload checksum mismatch";
        { meta = { seed; shard; shards; config }; tallies; countries; hosts; events; payload })

  let encode t =
    encode_segment ~meta:t.meta ~tallies:t.tallies ~countries:t.countries ~hosts:t.hosts
      ~events:t.events ~payload_len:(String.length t.payload)
      ~write_payload:(fun dst off -> Bytes.blit_string t.payload 0 dst off (String.length t.payload))

  let read_file path =
    match In_channel.with_open_bin path In_channel.input_all with
    | src -> decode src
    | exception Sys_error msg -> Result.Error (Bus.Codec.Invalid msg)

  let write_file path bytes = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc bytes)
end

(* --- writer --- *)

module Writer = struct
  (* The payload grows in fixed-size chunks rather than a doubling
     buffer: appending never copies what is already written, and
     [finish] copies each chunk once, into the sealed segment. *)
  let chunk_size = 65_536

  type t = {
    meta : meta;
    mutable chunk : Bytes.t;
    mutable pos : int;  (* bytes used in [chunk] *)
    mutable full : Bytes.t list;  (* filled chunks, newest first *)
    countries : Intern.t;
    hosts : Intern.t;
    mutable count : int;
    mutable prev_ip : int;
    mutable prev_asn : int;
    mutable prev_port : int;
    mutable prev_host : int;
    mutable finished : bool;
  }

  let create meta =
    {
      meta;
      chunk = Bytes.create chunk_size;
      pos = 0;
      full = [];
      countries = Intern.create ();
      hosts = Intern.create ();
      count = 0;
      prev_ip = 0;
      prev_asn = 0;
      prev_port = 0;
      prev_host = 0;
      finished = false;
    }

  let spill t =
    t.full <- t.chunk :: t.full;
    t.chunk <- Bytes.create chunk_size;
    t.pos <- 0

  let u8 t v =
    if t.pos = chunk_size then spill t;
    Bytes.unsafe_set t.chunk t.pos (Char.unsafe_chr (v land 0xff));
    t.pos <- t.pos + 1

  let varint t v =
    let v = ref v in
    while !v >= 0x80 do
      u8 t (0x80 lor (!v land 0x7f));
      v := !v lsr 7
    done;
    u8 t !v

  let zint t v = varint t ((v lsl 1) lxor (v asr 62))

  let f64 t v =
    let bits = Int64.bits_of_float v in
    for i = 7 downto 0 do
      u8 t (Int64.to_int (Int64.shift_right_logical bits (8 * i)))
    done

  let d_ip t ip =
    zint t (ip - t.prev_ip);
    t.prev_ip <- ip

  let d_asn t asn =
    zint t (asn - t.prev_asn);
    t.prev_asn <- asn

  let d_port t port =
    zint t (port - t.prev_port);
    t.prev_port <- port

  let d_host t h =
    let id = Intern.id t.hosts h in
    zint t (id - t.prev_host);
    t.prev_host <- id

  let client t ~client_ip ~country ~asn =
    d_ip t client_ip;
    varint t (Intern.id t.countries country);
    d_asn t asn

  let volume t ~tag_i ~tag_f bytes =
    if integral_float bytes then begin
      u8 t tag_i;
      varint t (int_of_float bytes)
    end
    else begin
      u8 t tag_f;
      f64 t bytes
    end

  let event t ev =
    if t.finished then invalid_arg "Trace.Writer.event: writer already finished";
    t.count <- t.count + 1;
    match (ev : Torsim.Event.t) with
    | Client_connection { client_ip; country; asn } ->
      u8 t t_connection;
      client t ~client_ip ~country ~asn
    | Client_circuit { client_ip; country; asn; kind = Data_circuit } ->
      u8 t t_circuit_data;
      client t ~client_ip ~country ~asn
    | Client_circuit { client_ip; country; asn; kind = Directory_circuit } ->
      u8 t t_circuit_dir;
      client t ~client_ip ~country ~asn
    | Directory_request { client_ip } ->
      u8 t t_dir_request;
      d_ip t client_ip
    | Entry_bytes { client_ip; country; asn; bytes } ->
      if integral_float bytes then begin
        u8 t t_entry_bytes_i;
        client t ~client_ip ~country ~asn;
        varint t (int_of_float bytes)
      end
      else begin
        u8 t t_entry_bytes_f;
        client t ~client_ip ~country ~asn;
        f64 t bytes
      end
    | Exit_bytes { bytes } -> volume t ~tag_i:t_exit_bytes_i ~tag_f:t_exit_bytes_f bytes
    | Exit_stream { kind; dest; port } -> (
      match dest with
      | Hostname h ->
        u8 t (match kind with Initial -> t_stream_init_host | Subsequent -> t_stream_sub_host);
        d_host t h;
        d_port t port
      | Ipv4_literal ->
        u8 t (match kind with Initial -> t_stream_init_v4 | Subsequent -> t_stream_sub_v4);
        d_port t port
      | Ipv6_literal ->
        u8 t (match kind with Initial -> t_stream_init_v6 | Subsequent -> t_stream_sub_v6);
        d_port t port)
    | Descriptor_published { address; first_publish } ->
      u8 t t_desc_published;
      d_host t address;
      u8 t (if first_publish then 1 else 0)
    | Descriptor_fetch { address; result } -> (
      match result with
      | Fetch_ok { public } ->
        u8 t t_desc_fetch_ok;
        d_host t address;
        u8 t (if public then 1 else 0)
      | Fetch_missing ->
        u8 t t_desc_fetch_missing;
        d_host t address
      | Fetch_malformed ->
        u8 t t_desc_fetch_malformed;
        d_host t address)
    | Rendezvous_circuit { outcome } -> (
      match outcome with
      | Rend_success { cells } ->
        u8 t t_rend_success;
        varint t cells
      | Rend_closed -> u8 t t_rend_closed
      | Rend_expired -> u8 t t_rend_expired)

  let events t = t.count

  let finish t ~tallies =
    if t.finished then invalid_arg "Trace.Writer.finish: writer already finished";
    t.finished <- true;
    let chunks = List.rev t.full in
    let write_payload dst off =
      List.iteri (fun i c -> Bytes.blit c 0 dst (off + (i * chunk_size)) chunk_size) chunks;
      Bytes.blit t.chunk 0 dst (off + (List.length chunks * chunk_size)) t.pos
    in
    encode_segment ~meta:t.meta ~tallies
      ~countries:(Intern.to_array t.countries)
      ~hosts:(Intern.to_array t.hosts)
      ~events:t.count
      ~payload_len:((List.length chunks * chunk_size) + t.pos)
      ~write_payload
end

(* --- replay --- *)

module View = struct
  type kind =
    | Connection
    | Circuit_data
    | Circuit_directory
    | Directory_request
    | Entry_bytes
    | Exit_bytes
    | Stream_initial
    | Stream_subsequent
    | Descriptor_published
    | Descriptor_fetch
    | Rendezvous

  type t = {
    mutable kind : kind;
    mutable ip : int;
    mutable country : int;
    mutable asn : int;
    mutable bytes : float;
    mutable host : int;
    mutable port : int;
    mutable flag : bool;
    mutable fetch : int;
    mutable cells : int;
  }

  let make () =
    {
      kind = Connection;
      ip = 0;
      country = 0;
      asn = 0;
      bytes = 0.0;
      host = 0;
      port = 0;
      flag = false;
      fetch = 0;
      cells = 0;
    }

  let to_event ~countries ~hosts v =
    let dest () : Torsim.Event.dest =
      if v.host >= 0 then Hostname hosts.(v.host)
      else if v.host = -1 then Ipv4_literal
      else Ipv6_literal
    in
    match v.kind with
    | Connection ->
      Torsim.Event.Client_connection
        { client_ip = v.ip; country = countries.(v.country); asn = v.asn }
    | Circuit_data ->
      Torsim.Event.Client_circuit
        { client_ip = v.ip; country = countries.(v.country); asn = v.asn; kind = Data_circuit }
    | Circuit_directory ->
      Torsim.Event.Client_circuit
        {
          client_ip = v.ip;
          country = countries.(v.country);
          asn = v.asn;
          kind = Directory_circuit;
        }
    | Directory_request -> Torsim.Event.Directory_request { client_ip = v.ip }
    | Entry_bytes ->
      Torsim.Event.Entry_bytes
        { client_ip = v.ip; country = countries.(v.country); asn = v.asn; bytes = v.bytes }
    | Exit_bytes -> Torsim.Event.Exit_bytes { bytes = v.bytes }
    | Stream_initial -> Torsim.Event.Exit_stream { kind = Initial; dest = dest (); port = v.port }
    | Stream_subsequent ->
      Torsim.Event.Exit_stream { kind = Subsequent; dest = dest (); port = v.port }
    | Descriptor_published ->
      Torsim.Event.Descriptor_published { address = hosts.(v.host); first_publish = v.flag }
    | Descriptor_fetch ->
      Torsim.Event.Descriptor_fetch
        {
          address = hosts.(v.host);
          result =
            (if v.fetch = 0 then Fetch_ok { public = v.flag }
             else if v.fetch = 1 then Fetch_missing
             else Fetch_malformed);
        }
    | Rendezvous ->
      Torsim.Event.Rendezvous_circuit
        {
          outcome =
            (if v.cells >= 0 then Rend_success { cells = v.cells }
             else if v.cells = -1 then Rend_closed
             else Rend_expired);
        }
end

(* The payload decoder: a cursor over one string with top-level
   readers, so no closure is built per field. Same wire forms as
   Bus.Codec.R (LEB128 varint, zigzag, IEEE bits) and the same typed
   errors, but the one-byte varint is inlined at each call site and
   only longer varints take the out-of-line loop — this is the replay
   hot path. *)

exception Bad of error

type cursor = { s : string; len : int; mutable pos : int }

let[@inline] u8 c =
  let p = c.pos in
  if p >= c.len then raise (Bad Bus.Codec.Truncated);
  c.pos <- p + 1;
  Char.code (String.unsafe_get c.s p)

(* Nine 7-bit groups hold every non-negative int; a tenth group, or a
   ninth that sets the sign bit, cannot come from the writer. *)
let rec varint_from c acc shift =
  if shift > 62 then raise (Bad (Bus.Codec.Invalid "varint overflow"));
  let b = u8 c in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b land 0x80 <> 0 then varint_from c acc (shift + 7)
  else if acc < 0 then raise (Bad (Bus.Codec.Invalid "varint overflow"))
  else acc

let[@inline] varint c =
  let p = c.pos in
  if p < c.len && Char.code (String.unsafe_get c.s p) < 0x80 then begin
    c.pos <- p + 1;
    Char.code (String.unsafe_get c.s p)
  end
  else varint_from c 0 0

let[@inline] zint c =
  let x = varint c in
  (x lsr 1) lxor (- (x land 1))

let f64 c =
  let p = c.pos in
  if p + 8 > c.len then raise (Bad Bus.Codec.Truncated);
  c.pos <- p + 8;
  Int64.float_of_bits (String.get_int64_be c.s p)

let client c (v : View.t) ~ncountries =
  v.ip <- v.ip + zint c;
  let country = varint c in
  if country >= ncountries then raise (Bad (Bus.Codec.Invalid "country id out of range"));
  v.country <- country;
  v.asn <- v.asn + zint c

(* returns the new host delta base, see [iter] *)
let host c (v : View.t) ~base ~nhosts =
  let h = base + zint c in
  if h < 0 || h >= nhosts then raise (Bad (Bus.Codec.Invalid "host id out of range"));
  v.host <- h;
  h

let iter (seg : Segment.t) f =
  let c = { s = seg.payload; len = String.length seg.payload; pos = 0 } in
  let ncountries = Array.length seg.countries in
  let nhosts = Array.length seg.hosts in
  let v = View.make () in
  let count = ref 0 in
  (* the host delta base must survive literal-destination records,
     which set [v.host] to a negative sentinel: track it separately *)
  let host_base = ref 0 in
  match
    while c.pos < c.len do
      let tag = u8 c in
      (if tag = t_connection then begin
         v.kind <- View.Connection;
         client c v ~ncountries
       end
       else if tag = t_circuit_data then begin
         v.kind <- View.Circuit_data;
         client c v ~ncountries
       end
       else if tag = t_circuit_dir then begin
         v.kind <- View.Circuit_directory;
         client c v ~ncountries
       end
       else if tag = t_dir_request then begin
         v.kind <- View.Directory_request;
         v.ip <- v.ip + zint c
       end
       else if tag = t_entry_bytes_i then begin
         v.kind <- View.Entry_bytes;
         client c v ~ncountries;
         v.bytes <- float_of_int (varint c)
       end
       else if tag = t_entry_bytes_f then begin
         v.kind <- View.Entry_bytes;
         client c v ~ncountries;
         v.bytes <- f64 c
       end
       else if tag = t_exit_bytes_i then begin
         v.kind <- View.Exit_bytes;
         v.bytes <- float_of_int (varint c)
       end
       else if tag = t_exit_bytes_f then begin
         v.kind <- View.Exit_bytes;
         v.bytes <- f64 c
       end
       else if tag = t_stream_init_host then begin
         v.kind <- View.Stream_initial;
         host_base := host c v ~base:!host_base ~nhosts;
         v.port <- v.port + zint c
       end
       else if tag = t_stream_init_v4 then begin
         v.kind <- View.Stream_initial;
         v.host <- -1;
         v.port <- v.port + zint c
       end
       else if tag = t_stream_init_v6 then begin
         v.kind <- View.Stream_initial;
         v.host <- -2;
         v.port <- v.port + zint c
       end
       else if tag = t_stream_sub_host then begin
         v.kind <- View.Stream_subsequent;
         host_base := host c v ~base:!host_base ~nhosts;
         v.port <- v.port + zint c
       end
       else if tag = t_stream_sub_v4 then begin
         v.kind <- View.Stream_subsequent;
         v.host <- -1;
         v.port <- v.port + zint c
       end
       else if tag = t_stream_sub_v6 then begin
         v.kind <- View.Stream_subsequent;
         v.host <- -2;
         v.port <- v.port + zint c
       end
       else if tag = t_desc_published then begin
         v.kind <- View.Descriptor_published;
         host_base := host c v ~base:!host_base ~nhosts;
         v.flag <- u8 c <> 0
       end
       else if tag = t_desc_fetch_ok then begin
         v.kind <- View.Descriptor_fetch;
         v.fetch <- 0;
         host_base := host c v ~base:!host_base ~nhosts;
         v.flag <- u8 c <> 0
       end
       else if tag = t_desc_fetch_missing then begin
         v.kind <- View.Descriptor_fetch;
         v.fetch <- 1;
         host_base := host c v ~base:!host_base ~nhosts
       end
       else if tag = t_desc_fetch_malformed then begin
         v.kind <- View.Descriptor_fetch;
         v.fetch <- 2;
         host_base := host c v ~base:!host_base ~nhosts
       end
       else if tag = t_rend_success then begin
         v.kind <- View.Rendezvous;
         v.cells <- varint c
       end
       else if tag = t_rend_closed then begin
         v.kind <- View.Rendezvous;
         v.cells <- -1
       end
       else if tag = t_rend_expired then begin
         v.kind <- View.Rendezvous;
         v.cells <- -2
       end
       else raise (Bad (Bus.Codec.Invalid (Printf.sprintf "unknown record tag %d" tag))));
      incr count;
      f v
    done
  with
  | () ->
    if !count <> seg.events then
      Result.Error
        (Bus.Codec.Invalid
           (Printf.sprintf "header promises %d events, payload holds %d" seg.events !count))
    else Result.Ok !count
  | exception Bad e -> Result.Error e

let iter_events (seg : Segment.t) f =
  iter seg (fun v -> f (View.to_event ~countries:seg.countries ~hosts:seg.hosts v))
