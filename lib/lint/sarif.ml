(* Machine-readable torlint output: a plain JSON findings document, a
   minimal SARIF 2.1.0 log, and a committed-baseline mode over stable
   fingerprints, so CI can gate on *new* findings while legacy ones
   burn down.

   Fingerprints hash (path, rule id, message, occurrence index) — not
   line/column — so findings survive unrelated edits that shift code
   around. Rule messages must therefore never embed positions; they
   embed names and call chains, which change exactly when the finding
   itself changes. The occurrence index disambiguates identical
   findings in one file (the N-th identical (rule, message) pair keeps
   fingerprint N).

   Both documents are written through [Obs.Json], the repo's one JSON
   codec; consumers read them back with [Obs.Json.of_string]. *)

(* ---------- fingerprints ---------- *)

let fingerprint ~occurrence (d : Diagnostic.t) =
  Digest.to_hex
    (Digest.string
       (String.concat "|"
          [ d.Diagnostic.path; d.rule_id; d.message; string_of_int occurrence ]))

let with_fingerprints diags =
  let seen : (string, int) Hashtbl.t = Hashtbl.create 16 in
  List.map
    (fun (d : Diagnostic.t) ->
      let key = d.Diagnostic.path ^ "|" ^ d.rule_id ^ "|" ^ d.message in
      let occurrence = Option.value ~default:0 (Hashtbl.find_opt seen key) in
      Hashtbl.replace seen key (occurrence + 1);
      (d, fingerprint ~occurrence d))
    diags

(* ---------- JSON writing ---------- *)

let severity_level = function
  | Diagnostic.Error -> "error"
  | Diagnostic.Warning -> "warning"

let str s = Obs.Json.Str s
let int i = Obs.Json.Num (float_of_int i)

let json pairs =
  let finding ((d : Diagnostic.t), fp) =
    Obs.Json.Obj
      [ ("path", str d.path); ("line", int d.line); ("col", int d.col); ("rule", str d.rule_id);
        ("severity", str (severity_level d.severity)); ("message", str d.message);
        ("fingerprint", str fp) ]
  in
  Obs.Json.to_string
    (Obj [ ("tool", str "torlint"); ("findings", Arr (List.map finding pairs)) ])
  ^ "\n"

let sarif ~rules pairs =
  let text t = Obs.Json.Obj [ ("text", str t) ] in
  let rule (id, doc) = Obs.Json.Obj [ ("id", str id); ("shortDescription", text doc) ] in
  let result ((d : Diagnostic.t), fp) =
    let location =
      Obs.Json.Obj
        [ ( "physicalLocation",
            Obj
              [ ("artifactLocation", Obj [ ("uri", str d.path) ]);
                ( "region",
                  Obj [ ("startLine", int d.line); ("startColumn", int (d.col + 1)) ] ) ] ) ]
    in
    Obs.Json.Obj
      [ ("ruleId", str d.rule_id); ("level", str (severity_level d.severity));
        ("message", text d.message); ("locations", Arr [ location ]);
        ("partialFingerprints", Obj [ ("torlint/v1", str fp) ]) ]
  in
  let driver =
    Obs.Json.Obj
      [ ("name", str "torlint"); ("informationUri", str "https://example.invalid/torlint");
        ("rules", Arr (List.map rule rules)) ]
  in
  let run =
    Obs.Json.Obj
      [ ("tool", Obj [ ("driver", driver) ]); ("results", Arr (List.map result pairs)) ]
  in
  Obs.Json.to_string
    (Obj
       [ ("$schema", str "https://json.schemastore.org/sarif-2.1.0.json"); ("version", str "2.1.0");
         ("runs", Arr [ run ]) ])
  ^ "\n"

(* ---------- baseline files ---------- *)

let baseline_to_string pairs =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    "# torlint baseline: one fingerprint per accepted finding.\n\
     # Regenerate with: torlint --write-baseline <this file>\n";
  List.iter
    (fun ((d : Diagnostic.t), fp) ->
      Buffer.add_string b
        (Printf.sprintf "%s  # %s %s\n" fp d.Diagnostic.rule_id d.path))
    pairs;
  Buffer.contents b

let baseline_of_string text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line =
           match String.index_opt line '#' with
           | Some i -> String.sub line 0 i
           | None -> line
         in
         match String.trim line with "" -> None | fp -> Some fp)
