(* Compare two BENCH_<ts>.json files kernel by kernel.

     bench-diff BASE.json NEW.json

   Prints ns/run for every kernel present in both files with the
   speedup factor (base/new: >1 is faster), and lists kernels present
   in only one file. Exit code is 0 whenever both files parse — the CI
   step that runs this is informational, not a gate (machine-to-machine
   timing noise would make a hard threshold flaky); an unreadable or
   malformed file exits 1 naming it. *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> text
  | exception Sys_error e -> fail "bench-diff: %s" e

(* (kernel, ns/run) in file order; kernels without an estimate
   ([ns_per_run] null) are left out. *)
let parse_kernels path =
  match Obs.Json.of_string (read_file path) with
  | Error msg -> fail "bench-diff: %s: malformed JSON: %s" path msg
  | Ok doc -> (
    match Obs.Json.member "kernels" doc with
    | Some (Obs.Json.Arr kernels) ->
      List.filter_map
        (fun k ->
          match (Obs.Json.member "name" k, Obs.Json.member "ns_per_run" k) with
          | Some (Obs.Json.Str name), Some (Obs.Json.Num ns) -> Some (name, ns)
          | _ -> None)
        kernels
    | _ -> [])

let () =
  let base_path, new_path =
    match Sys.argv with
    | [| _; b; n |] -> (b, n)
    | _ -> fail "usage: bench-diff BASE.json NEW.json"
  in
  let base = parse_kernels base_path and next = parse_kernels new_path in
  if base = [] then fail "bench-diff: no kernels parsed from %s" base_path;
  if next = [] then fail "bench-diff: no kernels parsed from %s" new_path;
  Printf.printf "%-42s %14s %14s %9s\n" "kernel" "base ns/run" "new ns/run" "speedup";
  Printf.printf "%s\n" (String.make 82 '-');
  let missing_new = ref [] in
  List.iter
    (fun (name, base_ns) ->
      match List.assoc_opt name next with
      | None -> missing_new := name :: !missing_new
      | Some new_ns ->
        let speedup = if new_ns > 0.0 then base_ns /. new_ns else infinity in
        Printf.printf "%-42s %14.1f %14.1f %8.2fx%s\n" name base_ns new_ns speedup
          (if speedup >= 1.10 then "  faster" else if speedup <= 0.90 then "  SLOWER" else ""))
    base;
  let only_new =
    List.filter (fun (name, _) -> not (List.mem_assoc name base)) next
  in
  List.iter (fun name -> Printf.printf "%-42s only in %s\n" name base_path) (List.rev !missing_new);
  List.iter (fun (name, _) -> Printf.printf "%-42s only in %s\n" name new_path) only_new
