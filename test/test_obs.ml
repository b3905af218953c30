(* Tests for the telemetry subsystem: metric semantics, quantile
   estimates on known distributions, span nesting, exporter output, and
   the zero-residue contract of disabled mode. *)

let with_obs f =
  Obs.reset ();
  Fun.protect ~finally:Obs.reset (fun () -> Obs.with_enabled true f)

let is_infix ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* --- metrics --- *)

let test_counter_semantics () =
  with_obs (fun () ->
      Obs.Metrics.inc "c_total";
      Obs.Metrics.inc ~by:4 "c_total";
      Obs.Metrics.inc_float "c_total" 0.5;
      Alcotest.(check (option (float 1e-9))) "accumulates" (Some 5.5)
        (Obs.Metrics.counter_value "c_total");
      Alcotest.check_raises "monotonic"
        (Invalid_argument "Metrics.inc c_total: counters are monotonic") (fun () ->
          Obs.Metrics.inc ~by:(-1) "c_total");
      Alcotest.check_raises "type clash"
        (Invalid_argument "Metrics: c_total is not a gauge") (fun () ->
          Obs.Metrics.set "c_total" 1.0))

let test_gauge_semantics () =
  with_obs (fun () ->
      Obs.Metrics.set "g" 3.0;
      Obs.Metrics.set "g" (-2.5);
      Alcotest.(check (option (float 1e-9))) "last write wins" (Some (-2.5))
        (Obs.Metrics.gauge_value "g"))

let test_histogram_semantics () =
  with_obs (fun () ->
      let buckets = [| 1.0; 2.0; 5.0 |] in
      List.iter (Obs.Metrics.observe ~buckets "h") [ 0.5; 1.0; 1.5; 4.0; 100.0 ];
      match Obs.Metrics.snapshot () with
      | [ { Obs.Metrics.name = "h";
            value = Obs.Metrics.Histogram_sample { counts; sum; total; bounds = _ } } ] ->
        Alcotest.(check (array int)) "bucket counts" [| 2; 1; 1; 1 |] counts;
        Alcotest.(check int) "total" 5 total;
        Alcotest.(check (float 1e-9)) "sum" 107.0 sum
      | _ -> Alcotest.fail "expected exactly one histogram sample")

let test_quantiles_known_distribution () =
  with_obs (fun () ->
      (* 1000 uniform draws over (0,100] against 10 linear buckets: the
         interpolated quantiles must sit close to the exact ones *)
      let buckets = Obs.Metrics.linear_buckets ~start:10.0 ~width:10.0 ~count:10 in
      for i = 1 to 1_000 do
        Obs.Metrics.observe ~buckets "u" (float_of_int i /. 10.0)
      done;
      let q x = Option.get (Obs.Metrics.quantile "u" x) in
      Alcotest.(check bool) "p50 ~ 50" true (Float.abs (q 0.5 -. 50.0) < 1.0);
      Alcotest.(check bool) "p90 ~ 90" true (Float.abs (q 0.9 -. 90.0) < 1.0);
      Alcotest.(check bool) "p99 ~ 99" true (Float.abs (q 0.99 -. 99.0) < 1.5);
      (* a point mass lands inside its covering bucket *)
      Obs.Metrics.observe ~buckets:[| 1.0; 2.0 |] "point" 1.5;
      let p = Option.get (Obs.Metrics.quantile "point" 0.5) in
      Alcotest.(check bool) "point mass in bucket" true (p > 1.0 && p <= 2.0);
      Alcotest.(check (option (float 0.0))) "unknown name" None (Obs.Metrics.quantile "nope" 0.5))

(* --- spans --- *)

let test_span_nesting_and_attrs () =
  with_obs (fun () ->
      let v =
        Obs.Trace.with_span "outer" ~attrs:[ ("k", "v") ] (fun () ->
            Obs.Trace.add_attr "late" "1";
            Obs.Trace.with_span "inner" (fun () -> 17) + 1)
      in
      Alcotest.(check int) "value through spans" 18 v;
      match Obs.Trace.spans () with
      | [ inner; outer ] ->
        (* completion order: inner closes first *)
        Alcotest.(check string) "inner name" "inner" inner.Obs.Trace.name;
        Alcotest.(check string) "outer name" "outer" outer.Obs.Trace.name;
        Alcotest.(check int) "inner depth" 1 inner.Obs.Trace.depth;
        Alcotest.(check int) "outer depth" 0 outer.Obs.Trace.depth;
        Alcotest.(check (option int)) "inner parent" (Some outer.Obs.Trace.id)
          inner.Obs.Trace.parent;
        Alcotest.(check (option int)) "outer is root" None outer.Obs.Trace.parent;
        Alcotest.(check (list (pair string string))) "attr propagation"
          [ ("k", "v"); ("late", "1") ] outer.Obs.Trace.attrs;
        Alcotest.(check bool) "durations nest" true
          (outer.Obs.Trace.duration_s >= inner.Obs.Trace.duration_s)
      | spans -> Alcotest.fail (Printf.sprintf "expected 2 spans, got %d" (List.length spans)))

let test_span_survives_exception () =
  with_obs (fun () ->
      (try Obs.Trace.with_span "boom" (fun () -> failwith "x") with Failure _ -> ());
      Alcotest.(check int) "span recorded" 1 (Obs.Trace.count ()))

(* Regression: an exception unwinding through nested spans must restore
   the ambient nesting — the next span opens at the root, and only the
   spans the exception actually crossed carry the "error" attribute. *)
let test_span_exception_restores_nesting () =
  with_obs (fun () ->
      (try
         Obs.Trace.with_span "outer" (fun () ->
             Obs.Trace.with_span "inner" (fun () -> failwith "boom"))
       with Failure _ -> ());
      Obs.Trace.with_span "after" (fun () -> ());
      match Obs.Trace.spans () with
      | [ inner; outer; after ] ->
        Alcotest.(check string) "inner closes first" "inner" inner.Obs.Trace.name;
        Alcotest.(check string) "outer closes second" "outer" outer.Obs.Trace.name;
        Alcotest.(check string) "clean span last" "after" after.Obs.Trace.name;
        Alcotest.(check int) "next span reopens at root" 0 after.Obs.Trace.depth;
        Alcotest.(check (option int)) "next span has no parent" None after.Obs.Trace.parent;
        Alcotest.(check bool) "raising spans carry error attr" true
          (List.mem_assoc "error" inner.Obs.Trace.attrs
          && List.mem_assoc "error" outer.Obs.Trace.attrs);
        Alcotest.(check bool) "clean span has no error attr" true
          (not (List.mem_assoc "error" after.Obs.Trace.attrs))
      | spans -> Alcotest.fail (Printf.sprintf "expected 3 spans, got %d" (List.length spans)))

let test_span_capacity () =
  with_obs (fun () ->
      Obs.Trace.set_capacity 3;
      Fun.protect
        ~finally:(fun () -> Obs.Trace.set_capacity 100_000)
        (fun () ->
          for i = 1 to 5 do
            Obs.Trace.with_span (Printf.sprintf "s%d" i) (fun () -> ())
          done;
          Alcotest.(check int) "kept" 3 (Obs.Trace.count ());
          Alcotest.(check int) "dropped" 2 (Obs.Trace.dropped ())))

let test_quantile_edge_cases () =
  with_obs (fun () ->
      let buckets = [| 1.0; 2.0 |] in
      Obs.Metrics.observe ~buckets "one" 1.5;
      let q x = Option.get (Obs.Metrics.quantile "one" x) in
      Alcotest.(check (float 1e-9)) "q=0 at bucket lower bound" 1.0 (q 0.0);
      Alcotest.(check (float 1e-9)) "q=0.5 interpolates" 1.5 (q 0.5);
      Alcotest.(check (float 1e-9)) "q=1 at bucket upper bound" 2.0 (q 1.0);
      Alcotest.(check (float 1e-9)) "q clamps below" 1.0 (q (-3.0));
      Alcotest.(check (float 1e-9)) "q clamps above" 2.0 (q 7.0);
      (* a lone overflow observation clamps to the last finite bound *)
      Obs.Metrics.observe ~buckets "over" 50.0;
      Alcotest.(check (float 1e-9)) "overflow clamps" 2.0
        (Option.get (Obs.Metrics.quantile "over" 0.5));
      Obs.Metrics.inc "c_total";
      Alcotest.(check (option (float 0.0))) "non-histogram name" None
        (Obs.Metrics.quantile "c_total" 0.5))

(* --- exporters --- *)

let test_prometheus_deterministic_and_parseable () =
  with_obs (fun () ->
      Obs.Metrics.inc ~by:3 (Obs.Metrics.labeled "events_total" [ ("kind", "a b") ]);
      Obs.Metrics.set "queue_depth" 7.0;
      Obs.Metrics.observe ~buckets:[| 1.0; 2.0 |] "lat_seconds" 1.5;
      let one = Obs.Export.prometheus (Obs.Metrics.snapshot ()) in
      let two = Obs.Export.prometheus (Obs.Metrics.snapshot ()) in
      Alcotest.(check string) "deterministic" one two;
      let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' one) in
      Alcotest.(check bool) "nonempty" true (lines <> []);
      List.iter
        (fun line ->
          if String.length line > 0 && line.[0] <> '#' then begin
            (* every sample line is "name[{labels}] number" *)
            match String.rindex_opt line ' ' with
            | None -> Alcotest.fail ("unparseable line: " ^ line)
            | Some i -> (
              let v = String.sub line (i + 1) (String.length line - i - 1) in
              match float_of_string_opt v with
              | Some _ -> ()
              | None -> Alcotest.fail ("bad value in: " ^ line))
          end)
        lines;
      Alcotest.(check bool) "TYPE lines present" true
        (List.exists (fun l -> l = "# TYPE events_total counter") lines);
      Alcotest.(check bool) "histogram exploded" true
        (List.exists (fun l -> l = "lat_seconds_bucket{le=\"2\"} 1") lines);
      Alcotest.(check bool) "+Inf bucket" true
        (List.exists (fun l -> l = "lat_seconds_bucket{le=\"+Inf\"} 1") lines))

let test_trace_jsonl_parseable () =
  with_obs (fun () ->
      Obs.Trace.with_span "a" ~attrs:[ ("quote", "say \"hi\"") ] (fun () ->
          Obs.Trace.with_span "b" (fun () -> ()));
      let out = Obs.Export.trace_jsonl (Obs.Trace.spans ()) in
      let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' out) in
      let parse line =
        match Obs.Json.of_string line with Ok v -> v | Error e -> Alcotest.failf "%s: %s" e line
      in
      match (List.map parse lines, Obs.Trace.spans ()) with
      | [ b; a ], [ sb; sa ] ->
        let field k v = Obs.Json.member k v and num x = Some (Obs.Json.Num (float_of_int x)) in
        let check what ok = Alcotest.(check bool) what true ok in
        check "names" (field "name" b = Some (Str "b") && field "name" a = Some (Str "a"));
        check "ids" (field "id" b = num sb.id && field "id" a = num sa.id);
        check "parents" (field "parent" b = num sa.id && field "parent" a = Some Null);
        check "depths" (field "depth" b = num 1 && field "depth" a = num 0);
        List.iter
          (fun k ->
            check (k ^ " non-negative")
              (match field k a with Some (Num x) -> x >= 0.0 | _ -> false))
          [ "start_s"; "duration_s"; "alloc_bytes" ];
        check "escaped attr reads back"
          (field "attrs" a = Some (Obj [ ("quote", Str "say \"hi\"") ]));
        check "empty attrs" (field "attrs" b = Some (Obj []))
      | _ -> Alcotest.failf "expected two parsed lines:\n%s" out)

let test_snapshot_json_parses_back () =
  with_obs (fun () ->
      Alcotest.(check string) "empty registry" "{}"
        (Obs.Export.snapshot_json (Obs.Metrics.snapshot ()));
      (* values chosen to round-trip exactly at the exporter's precision *)
      Obs.Metrics.inc ~by:3 "c_total";
      Obs.Metrics.set "g" (-0.125);
      Obs.Metrics.observe ~buckets:[| 1.0; 2.0 |] "h" 1.5;
      Alcotest.(check string) "field for field"
        {|{"c_total":3,"g":-0.125,"h":{"sum":1.5,"count":1}}|}
        (Obs.Export.snapshot_json (Obs.Metrics.snapshot ())))

let test_summary_nonempty () =
  with_obs (fun () ->
      Obs.Metrics.inc "c_total";
      Obs.Trace.with_span "s" (fun () -> ());
      let s = Obs.Export.summary (Obs.Metrics.snapshot ()) in
      Alcotest.(check bool) "mentions metric" true (is_infix ~affix:"c_total" s);
      Alcotest.(check bool) "no timing table" false (is_infix ~affix:"total ms" s))

(* --- JSON codec --- *)

let test_json_unicode_escapes () =
  let str text =
    match Obs.Json.of_string text with
    | Ok (Obs.Json.Str s) -> s
    | Ok _ -> Alcotest.failf "%s: not a string" text
    | Error e -> Alcotest.failf "%s: %s" text e
  in
  Alcotest.(check string) "below 0x80 is one byte" "\x01A" (str {|"\u0001\u0041"|});
  Alcotest.(check string) "\\u00e9 decodes as UTF-8" "\xc3\xa9" (str {|"\u00e9"|});
  Alcotest.(check string) "raw bytes kept" "\xc3\xa9\xff" (str "\"\xc3\xa9\xff\"");
  Alcotest.(check string) "BMP" "\xe2\x82\xac" (str {|"\u20AC"|});
  Alcotest.(check string) "surrogate pair" "\xf0\x9f\x98\x80" (str {|"\ud83d\ude00"|});
  List.iter
    (fun bad ->
      match Obs.Json.of_string bad with
      | Ok _ -> Alcotest.failf "accepted %s" bad
      | Error _ -> ())
    [ {|"\ud83d"|}; {|"\ude00"|}; {|"\u12"|}; {|"\uzzzz"|}; {|"\q"|}; {|"open|};
      "[1,]"; "{\"a\" 1}"; "tru"; "1 2"; ""; String.make 100_000 '[' ]

(* Values whose strings need every kind of escaping: quotes,
   backslashes, control characters and bytes >= 0x80. *)
let json_gen =
  let open QCheck.Gen in
  let byte =
    frequency
      [ (3, char_range 'a' 'z'); (1, oneofl [ '"'; '\\'; '/' ]); (1, char_range '\000' '\031');
        (2, char_range '\128' '\255') ]
  in
  let str = string_size ~gen:byte (int_range 0 10) in
  let num =
    oneof
      [ map (fun i -> float_of_int i /. 7.0) (int_range (-1_000_000) 1_000_000);
        oneofl [ 0.1; -0.0; 1e-11; 4.9e-324; 1.5e300; 1e15; 123456789012345678. ] ]
  in
  let leaf =
    oneof
      [ return Obs.Json.Null; map (fun b -> Obs.Json.Bool b) bool;
        map (fun v -> Obs.Json.Num v) num; map (fun s -> Obs.Json.Str s) str ]
  in
  sized_size (int_bound 3)
  @@ fix (fun self depth ->
         let items g = list_size (int_bound 4) g in
         if depth = 0 then leaf
         else
           frequency
             [ (2, leaf); (1, map (fun l -> Obs.Json.Arr l) (items (self (depth - 1))));
               (1, map (fun l -> Obs.Json.Obj l) (items (pair str (self (depth - 1))))) ])

let prop_json_roundtrip =
  QCheck.Test.make ~name:"json read . write = id" ~count:500
    (QCheck.make ~print:Obs.Json.to_string json_gen)
    (fun v -> Obs.Json.of_string (Obs.Json.to_string v) = Ok v)

(* Arbitrary bytes, and JSON-alphabet soup that reaches the deeper
   states of the reader: always [Ok] or [Error], never an exception. *)
let prop_json_total =
  let soup =
    QCheck.Gen.(
      string_size
        ~gen:(oneofl [ '{'; '}'; '['; ']'; '"'; ':'; ','; '\\'; 'u'; 'd'; '8'; '0'; 'e'; '-';
                       '.'; 't'; 'n'; ' '; '\n'; '\xc3' ])
        (int_range 0 40))
  in
  let gen =
    QCheck.Gen.(
      oneof
        [ string_size ~gen:char (int_range 0 40); soup;
          map (fun v -> let s = Obs.Json.to_string v in String.sub s 0 (String.length s / 2))
            json_gen ])
  in
  QCheck.Test.make ~name:"json reader is total" ~count:2000 (QCheck.make ~print:String.escaped gen)
    (fun text -> match Obs.Json.of_string text with Ok _ | Error _ -> true)

(* --- golden output bytes --- *)

(* Fixed inputs whose exporter output is pinned byte for byte: any
   change to escaping, number formatting or field order shows up here. *)
let golden_spans =
  [
    { Obs.Trace.id = 2; parent = Some 1; depth = 1; name = "inner \"q\"";
      attrs = [ ("path", "a\\b"); ("ctl", "x\x01\ty\n"); ("utf8", "caf\xc3\xa9") ];
      start_s = 0.0; duration_s = 0.0; alloc_bytes = 0.0 };
    { Obs.Trace.id = 1; parent = None; depth = 0; name = "outer"; attrs = [];
      start_s = 0.0; duration_s = 0.0; alloc_bytes = 0.0 };
  ]

let golden_samples =
  [
    { Obs.Metrics.name = "c_total{kind=\"a b\"}"; value = Obs.Metrics.Counter_sample 3.0 };
    { Obs.Metrics.name = "g"; value = Obs.Metrics.Gauge_sample (1.0 /. 3.0) };
    { Obs.Metrics.name = "h_seconds";
      value =
        Obs.Metrics.Histogram_sample
          { bounds = [| 1.0; 2.0 |]; counts = [| 1; 0; 1 |]; sum = 0.1 +. 7.25; total = 2 } };
    { Obs.Metrics.name = "big"; value = Obs.Metrics.Gauge_sample 1.5e300 };
  ]

let test_golden_trace_jsonl () =
  Alcotest.(check string) "trace jsonl bytes"
    {|{"id":2,"parent":1,"depth":1,"name":"inner \"q\"","start_s":0,"duration_s":0,"alloc_bytes":0,"attrs":{"path":"a\\b","ctl":"x\u0001\ty\n","utf8":"café"}}
{"id":1,"parent":null,"depth":0,"name":"outer","start_s":0,"duration_s":0,"alloc_bytes":0,"attrs":{}}
|}
    (Obs.Export.trace_jsonl golden_spans)

let test_golden_snapshot_json () =
  Alcotest.(check string) "snapshot json bytes"
    {|{"c_total{kind=\"a b\"}":3,"g":0.333333333,"h_seconds":{"sum":7.35,"count":2},"big":1.5e+300}|}
    (Obs.Export.snapshot_json golden_samples)

(* A fixed-seed verified PSC round followed by a PrivCount tally: the
   canonical ledger (timings zeroed) is pinned byte for byte. *)
let golden_ledger () =
  with_obs (fun () ->
      let cfg =
        Psc.Protocol.config ~table_size:64 ~num_cps:2 ~noise_flips_per_cp:4
          ~proof_rounds:(Some 2) ~verify:true ~dp:Dp.Mechanism.paper_params ()
      in
      let proto = Psc.Protocol.create cfg ~num_dcs:2 ~seed:11 in
      for i = 0 to 9 do
        Psc.Protocol.insert proto ~dc:(i mod 2) (Printf.sprintf "g%d" i)
      done;
      ignore (Psc.Protocol.run proto);
      let dep =
        Privcount.Deployment.create
          (Privcount.Deployment.config
             [ Privcount.Counter.spec ~name:"streams" ~sensitivity:1.0;
               Privcount.Counter.spec ~name:"bytes \"in\"" ~sensitivity:2.5 ])
          ~num_dcs:2 ~seed:11
      in
      Privcount.Deployment.increment dep ~dc:0 ~name:"streams" ~by:5;
      Privcount.Deployment.increment dep ~dc:1 ~name:"bytes \"in\"" ~by:9;
      ignore (Privcount.Deployment.tally dep);
      Obs.Ledger.to_jsonl ~timings:false (Obs.Ledger.events ()))

let golden_ledger_bytes =
  {|{"e":"proof","kind":"psc-key","party":0,"ok":true,"batch":1}
{"e":"proof","kind":"psc-key","party":1,"ok":true,"batch":1}
{"e":"grant","system":"psc","epsilon":0.3,"delta":1e-11}
{"e":"draw","system":"psc","counter":"cardinality","mechanism":"binomial","epsilon":0.3,"delta":1e-11,"cum_epsilon":0.3,"cum_delta":1e-11}
{"e":"phase","name":"psc.combine","wall_s":0,"alloc_bytes":0}
{"e":"proof","kind":"psc-noise-bit","party":0,"ok":true,"batch":4}
{"e":"proof","kind":"psc-noise-bit","party":1,"ok":true,"batch":4}
{"e":"phase","name":"psc.noise","wall_s":0,"alloc_bytes":0}
{"e":"phase","name":"psc.shuffle","wall_s":0,"alloc_bytes":0}
{"e":"proof","kind":"psc-shuffle","party":0,"ok":true,"batch":72}
{"e":"phase","name":"psc.rerandomize","wall_s":0,"alloc_bytes":0}
{"e":"phase","name":"psc.shuffle","wall_s":0,"alloc_bytes":0}
{"e":"proof","kind":"psc-shuffle","party":1,"ok":true,"batch":72}
{"e":"phase","name":"psc.rerandomize","wall_s":0,"alloc_bytes":0}
{"e":"proof","kind":"psc-decrypt","party":0,"ok":true,"batch":72}
{"e":"proof","kind":"psc-decrypt","party":1,"ok":true,"batch":72}
{"e":"phase","name":"psc.decrypt","wall_s":0,"alloc_bytes":0}
{"e":"phase","name":"psc.estimate","wall_s":0,"alloc_bytes":0}
{"e":"phase","name":"psc.run","wall_s":0,"alloc_bytes":0}
{"e":"grant","system":"privcount","epsilon":0.3,"delta":1e-11}
{"e":"draw","system":"privcount","counter":"bytes \"in\"","mechanism":"gaussian","epsilon":0.15,"delta":5e-12,"cum_epsilon":0.15,"cum_delta":5e-12}
{"e":"draw","system":"privcount","counter":"streams","mechanism":"gaussian","epsilon":0.15,"delta":5e-12,"cum_epsilon":0.3,"cum_delta":1e-11}
{"e":"proof","kind":"privcount-blinding","party":0,"ok":true,"batch":6}
{"e":"proof","kind":"privcount-blinding","party":1,"ok":true,"batch":6}
{"e":"phase","name":"privcount.setup","wall_s":0,"alloc_bytes":0}
{"e":"phase","name":"privcount.tally","wall_s":0,"alloc_bytes":0}
|}

let test_golden_ledger () =
  Alcotest.(check string) "canonical ledger bytes" golden_ledger_bytes (golden_ledger ())

(* --- run ledger --- *)

let test_ledger_draw_accumulates () =
  with_obs (fun () ->
      Obs.Ledger.grant ~system:"a" ~epsilon:1.0 ~delta:1e-9;
      Obs.Ledger.draw ~system:"a" ~counter:"x" ~mechanism:"gaussian" ~epsilon:0.25 ~delta:2e-10;
      Obs.Ledger.draw ~system:"b" ~counter:"y" ~mechanism:"binomial" ~epsilon:0.5 ~delta:0.0;
      Obs.Ledger.draw ~system:"a" ~counter:"z" ~mechanism:"gaussian" ~epsilon:0.25 ~delta:2e-10;
      (match Obs.Ledger.events () with
      | [ Obs.Ledger.Grant { system = "a"; _ };
          Obs.Ledger.Draw { cum_epsilon = c1; _ };
          Obs.Ledger.Draw { system = "b"; cum_epsilon = c2; _ };
          Obs.Ledger.Draw { cum_epsilon = c3; cum_delta = d3; _ } ] ->
        Alcotest.(check (float 1e-12)) "first draw cum" 0.25 c1;
        Alcotest.(check (float 1e-12)) "systems accumulate independently" 0.5 c2;
        Alcotest.(check (float 1e-12)) "second draw adds" 0.5 c3;
        Alcotest.(check (float 1e-20)) "delta accumulates" 4e-10 d3
      | evs -> Alcotest.fail (Printf.sprintf "unexpected events (%d)" (List.length evs)));
      let a = Obs.Ledger.audit (Obs.Ledger.events ()) in
      Alcotest.(check bool) "within grant, ungranted system unbounded" true a.Obs.Ledger.ok;
      Alcotest.(check (list string)) "no violations" [] a.Obs.Ledger.violations)

let test_ledger_phase_event () =
  with_obs (fun () ->
      let v = Obs.Ledger.phase "p" ~attrs:[ ("k", "v") ] (fun () -> 7) in
      Alcotest.(check int) "transparent" 7 v;
      (try Obs.Ledger.phase "q" (fun () -> failwith "x") with Failure _ -> ());
      match Obs.Ledger.events () with
      | [ Obs.Ledger.Phase { name = "p"; wall_s; _ }; Obs.Ledger.Phase { name = "q"; _ } ] ->
        Alcotest.(check bool) "wall time non-negative" true (wall_s >= 0.0);
        Alcotest.(check int) "one span per phase" 2 (Obs.Trace.count ())
      | _ -> Alcotest.fail "expected two phase events")

(* A phase is measured once: every Phase row carries exactly the
   duration and allocation of its span, raising phases included. *)
let test_phase_rows_are_span_measurements () =
  with_obs (fun () ->
      Obs.Ledger.phase "outer" (fun () ->
          for i = 1 to 3 do
            Obs.Ledger.phase "inner" (fun () -> ignore (Sys.opaque_identity (Array.make i 0.0)))
          done);
      (try Obs.Ledger.phase "raises" (fun () -> failwith "x") with Failure _ -> ());
      let rows =
        List.filter_map
          (function
            | Obs.Ledger.Phase { name; wall_s; alloc_bytes } -> Some (name, wall_s, alloc_bytes)
            | _ -> None)
          (Obs.Ledger.events ())
      in
      let spans =
        List.map
          (fun (sp : Obs.Trace.span) -> (sp.name, sp.duration_s, sp.alloc_bytes))
          (Obs.Trace.spans ())
      in
      Alcotest.(check int) "five phases" 5 (List.length rows);
      Alcotest.(check (list (triple string (float 0.0) (float 0.0))))
        "phase row = span measurement" spans rows)

let roundtrip_events =
  [
    Obs.Ledger.Grant { system = "privcount"; epsilon = 0.3; delta = 1e-11 };
    Obs.Ledger.Draw
      { system = "s \"q\" \\ \n"; counter = "c\twith\ttabs"; mechanism = "gaussian";
        epsilon = 0.1; delta = 0.0; cum_epsilon = 0.1; cum_delta = 0.0 };
    Obs.Ledger.Proof { kind = "shuffle"; party = 2; ok = false; batch = 256 };
    Obs.Ledger.Phase { name = "phase/one"; wall_s = 0.03125; alloc_bytes = 1234567.0 };
    Obs.Ledger.Note { key = "k"; value = "v\x01control \xc3\xa9" };
  ]

let test_ledger_jsonl_roundtrip () =
  (match Obs.Ledger.of_jsonl (Obs.Ledger.to_jsonl roundtrip_events) with
  | Error e -> Alcotest.fail e
  | Ok back -> Alcotest.(check bool) "field for field" true (back = roundtrip_events));
  (* canonical form: Phase timings zeroed, everything else untouched *)
  (match Obs.Ledger.of_jsonl (Obs.Ledger.to_jsonl ~timings:false roundtrip_events) with
  | Error e -> Alcotest.fail e
  | Ok canon ->
    Alcotest.(check bool) "timings zeroed" true
      (List.exists
         (function Obs.Ledger.Phase { wall_s = 0.0; alloc_bytes = 0.0; _ } -> true | _ -> false)
         canon));
  (match Obs.Ledger.of_jsonl "{\"e\":\"nope\"}" with
  | Ok _ -> Alcotest.fail "accepted unknown event tag"
  | Error msg -> Alcotest.(check bool) "error names the line" true (is_infix ~affix:"line 1" msg))

(* Structural round-trip on randomized events: arbitrary byte strings
   (escapes included) and awkward floats must reconstruct exactly. *)
let prop_ledger_roundtrip =
  let gen_float =
    QCheck.Gen.oneof
      [
        QCheck.Gen.oneofl [ 0.0; 1e-11; 0.3; -2.5; 1.5e300; 4.9e-324; 0.1 ];
        QCheck.Gen.map (fun i -> float_of_int i /. 7.0) (QCheck.Gen.int_range (-10_000) 10_000);
      ]
  in
  let gen_event =
    let open QCheck.Gen in
    let str = string_size ~gen:(int_range 0 255 >|= Char.chr) (int_range 0 12) in
    oneof
      [
        map3 (fun s e d -> Obs.Ledger.Grant { system = s; epsilon = e; delta = d })
          str gen_float gen_float;
        map3
          (fun (s, c, m) (e, d) (ce, cd) ->
            Obs.Ledger.Draw
              { system = s; counter = c; mechanism = m; epsilon = e; delta = d;
                cum_epsilon = ce; cum_delta = cd })
          (triple str str str) (pair gen_float gen_float) (pair gen_float gen_float);
        map3 (fun k p (ok, b) -> Obs.Ledger.Proof { kind = k; party = p; ok; batch = b })
          str small_nat (pair bool small_nat);
        map3 (fun n w a -> Obs.Ledger.Phase { name = n; wall_s = w; alloc_bytes = a })
          str gen_float gen_float;
        map2 (fun k v -> Obs.Ledger.Note { key = k; value = v }) str str;
      ]
  in
  QCheck.Test.make ~name:"ledger jsonl round-trips" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 0 8) gen_event))
    (fun events ->
      match Obs.Ledger.of_jsonl (Obs.Ledger.to_jsonl events) with
      | Ok back -> back = events
      | Error _ -> false)

let test_audit_flags_violations () =
  let draw cum =
    Obs.Ledger.Draw
      { system = "s"; counter = "c"; mechanism = "m"; epsilon = 0.2; delta = 0.0;
        cum_epsilon = cum; cum_delta = 0.0 }
  in
  let failed = Obs.Ledger.audit [ Obs.Ledger.Proof { kind = "shuffle"; party = 1; ok = false; batch = 8 } ] in
  Alcotest.(check bool) "failed proof flagged" false failed.Obs.Ledger.ok;
  Alcotest.(check int) "counted" 1 failed.Obs.Ledger.proofs_failed;
  Alcotest.(check bool) "violation names the proof" true
    (List.exists (is_infix ~affix:"shuffle") failed.Obs.Ledger.violations);
  let overspent =
    Obs.Ledger.audit
      [ Obs.Ledger.Grant { system = "s"; epsilon = 0.3; delta = 0.0 }; draw 0.2; draw 0.4 ]
  in
  Alcotest.(check bool) "overspend flagged" false overspent.Obs.Ledger.ok;
  Alcotest.(check bool) "violation names the system" true
    (List.exists (is_infix ~affix:"s") overspent.Obs.Ledger.violations);
  let mismatch = Obs.Ledger.audit [ draw 0.2; draw 0.3 ] in
  Alcotest.(check bool) "cum mismatch flagged" false mismatch.Obs.Ledger.ok

(* End to end: a tampered CP's failed shuffle proof lands in the ledger
   and `audit` rejects the run. *)
let test_tampered_psc_fails_audit () =
  with_obs (fun () ->
      let cfg =
        Psc.Protocol.config ~table_size:256 ~num_cps:3 ~noise_flips_per_cp:8
          ~proof_rounds:(Some 4) ~verify:true
          ~tamper:{ Psc.Protocol.tampered_cp = 1; action = `Shuffle_swap }
          ()
      in
      let proto = Psc.Protocol.create cfg ~num_dcs:2 ~seed:5 in
      for i = 0 to 19 do
        Psc.Protocol.insert proto ~dc:(i land 1) (string_of_int i)
      done;
      let r = Psc.Protocol.run proto in
      Alcotest.(check bool) "proofs failed in-protocol" false r.Psc.Protocol.proofs_ok;
      let a = Obs.Ledger.audit (Obs.Ledger.events ()) in
      Alcotest.(check bool) "audit rejects the ledger" false a.Obs.Ledger.ok;
      Alcotest.(check bool) "failed proofs counted" true (a.Obs.Ledger.proofs_failed > 0))

(* The tentpole invariant: a full verified PSC round writes the same
   canonical ledger at any pool size — worker-side events are buffered
   per chunk and replayed in task order. *)
let prop_ledger_jobs_invariant =
  QCheck.Test.make ~name:"ledger identical at jobs=1 and jobs=4" ~count:4
    QCheck.(pair (int_range 1 40) (int_range 0 80))
    (fun (seed, n) ->
      let ledger_at jobs =
        let before = Parallel.jobs () in
        Parallel.set_jobs jobs;
        Fun.protect
          ~finally:(fun () ->
            Parallel.set_jobs before;
            Obs.reset ())
          (fun () ->
            Obs.reset ();
            Obs.with_enabled true (fun () ->
                let cfg =
                  Psc.Protocol.config ~table_size:256 ~num_cps:3 ~noise_flips_per_cp:8
                    ~proof_rounds:(Some 4) ~verify:true ~dp:Dp.Mechanism.paper_params ()
                in
                let proto = Psc.Protocol.create cfg ~num_dcs:2 ~seed in
                for i = 0 to n - 1 do
                  Psc.Protocol.insert proto ~dc:(i mod 2) (Printf.sprintf "i%d" i)
                done;
                ignore (Psc.Protocol.run proto);
                Obs.Ledger.to_jsonl ~timings:false (Obs.Ledger.events ())))
      in
      let a = ledger_at 1 and b = ledger_at 4 in
      a <> "" && String.equal a b)

(* --- disabled mode --- *)

let test_disabled_leaves_no_residue () =
  Obs.reset ();
  Alcotest.(check bool) "disabled by default" false (Obs.enabled ());
  Obs.Metrics.inc "c_total";
  Obs.Metrics.set "g" 1.0;
  Obs.Metrics.observe "h" 1.0;
  let v = Obs.Trace.with_span "s" (fun () -> 41 + 1) in
  Obs.Trace.add_attr "k" "v";
  Obs.Ledger.note ~key:"k" ~value:"v";
  Obs.Ledger.draw ~system:"s" ~counter:"c" ~mechanism:"m" ~epsilon:1.0 ~delta:0.0;
  let p = Obs.Ledger.phase "p" (fun () -> 6 * 7) in
  Alcotest.(check int) "with_span is transparent" 42 v;
  Alcotest.(check int) "phase is transparent" 42 p;
  Alcotest.(check int) "empty ledger" 0 (Obs.Ledger.size ());
  Alcotest.(check int) "empty registry" 0 (Obs.Metrics.size ());
  Alcotest.(check (list unit)) "no samples" []
    (List.map (fun _ -> ()) (Obs.Metrics.snapshot ()));
  Alcotest.(check int) "no spans" 0 (Obs.Trace.count ());
  Alcotest.(check (option (float 0.0))) "no counter" None (Obs.Metrics.counter_value "c_total")

let test_instrumented_paths_silent_when_disabled () =
  (* run an instrumented subsystem end to end with telemetry off: the
     registry and span buffer must stay empty *)
  Obs.reset ();
  let proto =
    Psc.Protocol.create
      (Psc.Protocol.config ~table_size:256 ~num_cps:2 ~noise_flips_per_cp:8 ~proof_rounds:None
         ~verify:false ())
      ~num_dcs:2 ~seed:3
  in
  for i = 0 to 49 do
    Psc.Protocol.insert proto ~dc:(i land 1) (Printf.sprintf "x%d" i)
  done;
  ignore (Psc.Protocol.run proto);
  Alcotest.(check int) "no metrics" 0 (Obs.Metrics.size ());
  Alcotest.(check int) "no spans" 0 (Obs.Trace.count ());
  Alcotest.(check int) "no ledger events" 0 (Obs.Ledger.size ())

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter semantics" `Quick test_counter_semantics;
          Alcotest.test_case "gauge semantics" `Quick test_gauge_semantics;
          Alcotest.test_case "histogram semantics" `Quick test_histogram_semantics;
          Alcotest.test_case "quantile estimates" `Quick test_quantiles_known_distribution;
          Alcotest.test_case "quantile edge cases" `Quick test_quantile_edge_cases;
        ] );
      ( "trace",
        [
          Alcotest.test_case "nesting and attrs" `Quick test_span_nesting_and_attrs;
          Alcotest.test_case "exception safety" `Quick test_span_survives_exception;
          Alcotest.test_case "exception restores nesting" `Quick
            test_span_exception_restores_nesting;
          Alcotest.test_case "capacity cap" `Quick test_span_capacity;
        ] );
      ( "export",
        [
          Alcotest.test_case "prometheus" `Quick test_prometheus_deterministic_and_parseable;
          Alcotest.test_case "trace jsonl" `Quick test_trace_jsonl_parseable;
          Alcotest.test_case "snapshot json" `Quick test_snapshot_json_parses_back;
          Alcotest.test_case "summary" `Quick test_summary_nonempty;
          Alcotest.test_case "golden trace jsonl" `Quick test_golden_trace_jsonl;
          Alcotest.test_case "golden snapshot json" `Quick test_golden_snapshot_json;
        ] );
      ( "json",
        [
          Alcotest.test_case "unicode escapes" `Quick test_json_unicode_escapes;
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
          QCheck_alcotest.to_alcotest prop_json_total;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "draw accumulates" `Quick test_ledger_draw_accumulates;
          Alcotest.test_case "phase events" `Quick test_ledger_phase_event;
          Alcotest.test_case "phase rows are span measurements" `Quick
            test_phase_rows_are_span_measurements;
          Alcotest.test_case "jsonl round-trip" `Quick test_ledger_jsonl_roundtrip;
          QCheck_alcotest.to_alcotest prop_ledger_roundtrip;
          Alcotest.test_case "audit violations" `Quick test_audit_flags_violations;
          Alcotest.test_case "tampered run fails audit" `Quick test_tampered_psc_fails_audit;
          QCheck_alcotest.to_alcotest prop_ledger_jobs_invariant;
          Alcotest.test_case "golden canonical ledger" `Quick test_golden_ledger;
        ] );
      ( "disabled",
        [
          Alcotest.test_case "no residue" `Quick test_disabled_leaves_no_residue;
          Alcotest.test_case "instrumented paths silent" `Quick
            test_instrumented_paths_silent_when_disabled;
        ] );
    ]
