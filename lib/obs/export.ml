(* Exporters: Prometheus text exposition for the metrics registry,
   JSON-lines for trace spans, a JSON object for bench snapshots (both
   through [Json]), and a human end-of-run metrics table. Output is
   deterministic for a given registry/span-buffer state (snapshots are
   name-sorted and numbers formatted by one function). *)

let fmt_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

(* "name{k="v"}" -> ("name", Some "k=\"v\"") *)
let split_labels name =
  match String.index_opt name '{' with
  | None -> (name, None)
  | Some i ->
    let base = String.sub name 0 i in
    let rest = String.sub name (i + 1) (String.length name - i - 2) in
    (base, Some rest)

let prometheus samples =
  let b = Buffer.create 4096 in
  let typed = Hashtbl.create 16 in
  let type_line base kind =
    if not (Hashtbl.mem typed base) then begin
      Hashtbl.replace typed base ();
      Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" base kind)
    end
  in
  List.iter
    (fun { Metrics.name; value } ->
      let base, labels = split_labels name in
      match value with
      | Metrics.Counter_sample v ->
        type_line base "counter";
        Buffer.add_string b (Printf.sprintf "%s %s\n" name (fmt_float v))
      | Metrics.Gauge_sample v ->
        type_line base "gauge";
        Buffer.add_string b (Printf.sprintf "%s %s\n" name (fmt_float v))
      | Metrics.Histogram_sample { bounds; counts; sum; total } ->
        type_line base "histogram";
        let with_le le =
          match labels with
          | None -> Printf.sprintf "%s_bucket{le=\"%s\"}" base le
          | Some l -> Printf.sprintf "%s_bucket{%s,le=\"%s\"}" base l le
        in
        let cum = ref 0 in
        Array.iteri
          (fun i bound ->
            cum := !cum + counts.(i);
            Buffer.add_string b
              (Printf.sprintf "%s %d\n" (with_le (fmt_float bound)) !cum))
          bounds;
        Buffer.add_string b (Printf.sprintf "%s %d\n" (with_le "+Inf") total);
        let suffixed suffix =
          match labels with
          | None -> base ^ suffix
          | Some l -> Printf.sprintf "%s%s{%s}" base suffix l
        in
        Buffer.add_string b (Printf.sprintf "%s %s\n" (suffixed "_sum") (fmt_float sum));
        Buffer.add_string b (Printf.sprintf "%s %d\n" (suffixed "_count") total))
    samples;
  Buffer.contents b

(* --- JSON (through the one codec, at the exporters' display precision) --- *)

let span_json (s : Trace.span) =
  let num v = Json.Num v and int i = Json.Num (float_of_int i) in
  Json.to_string ~float:fmt_float
    (Obj
       [ ("id", int s.id); ("parent", match s.parent with None -> Null | Some p -> int p);
         ("depth", int s.depth); ("name", Str s.name); ("start_s", num s.start_s);
         ("duration_s", num s.duration_s); ("alloc_bytes", num s.alloc_bytes);
         ("attrs", Obj (List.map (fun (k, v) -> (k, Json.Str v)) s.attrs)) ])

let trace_jsonl spans = String.concat "" (List.map (fun s -> span_json s ^ "\n") spans)

(* Flat JSON object for bench snapshots: counters/gauges as numbers,
   histograms as {sum,count}. *)
let snapshot_json samples =
  let field { Metrics.name; value } =
    match value with
    | Metrics.Counter_sample v | Metrics.Gauge_sample v -> (name, Json.Num v)
    | Metrics.Histogram_sample { sum; total; _ } ->
      (name, Json.Obj [ ("sum", Num sum); ("count", Num (float_of_int total)) ])
  in
  Json.to_string ~float:fmt_float (Obj (List.map field samples))

(* --- end-of-run summary --- *)

(* Metrics only: the run's one timing table is the ledger's phase
   table ([Ledger.summary]), built from the same spans. *)
let summary samples =
  let b = Buffer.create 2048 in
  Buffer.add_string b "== telemetry summary ==\n";
  (* counters and gauges, histograms as sum/count *)
  if samples <> [] then begin
    Buffer.add_string b (Printf.sprintf "   %-58s %16s\n" "metric" "value");
    List.iter
      (fun { Metrics.name; value } ->
        match value with
        | Metrics.Counter_sample v | Metrics.Gauge_sample v ->
          Buffer.add_string b (Printf.sprintf "   %-58s %16s\n" name (fmt_float v))
        | Metrics.Histogram_sample { sum; total; _ } ->
          Buffer.add_string b
            (Printf.sprintf "   %-58s %16s\n"
               (name ^ " (sum/count)")
               (Printf.sprintf "%s/%d" (fmt_float sum) total)))
      samples
  end;
  Buffer.contents b

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)
