(* The repo benchmark. One invocation runs one workload, in its own
   process, at --jobs 1, as a closed loop: one caller, each job starting
   when the previous one ends, for --seconds. Every job's output is
   checked against a reference built during set-up.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
     bench.exe --selftest ROOT

   --trace 0 prints the end-to-end metrics. --trace 1 prints the
   per-layer metrics: an untraced loop, a loop with Obs telemetry on
   (ledger phases, proof rows, metrics), layer probes, and for two
   workloads a loop at --jobs 2. The last stdout line is one JSON
   object {correct, attempted, failed, metrics}; the line before it is
   the run's metadata. A run with a failed job exits 1.

   Allocation is read with Gc.allocated_bytes, which in OCaml 5.1
   counts only the calling domain: at --jobs > 1 the pool workers'
   allocations are missed. That is one reason every measured loop runs
   at --jobs 1; the --jobs 2 loop reports time only. *)

module W = Workloads

let end_to_end =
  [ ("setup_s", "s"); ("units_per_s", "1/s"); ("job_p50_s", "s"); ("job_tail_s", "s");
    ("alloc_b_per_unit", "B"); ("peak_rss_mb", "MB") ]

let per_layer =
  [ ("netday.generate_s", "s"); ("netday.shards_s", "s"); ("netday.merge_s", "s");
    ("netday.shard_skew", "ratio"); ("replay.shards_s", "s"); ("replay.merge_s", "s");
    ("replay.shard_skew", "ratio"); ("torsim.simulate_ns_per_event", "ns");
    ("privcount.ingest_ns_per_event", "ns"); ("evtrace.decode_ns_per_event", "ns");
    ("evtrace.decode_alloc_b_per_event", "B"); ("evtrace.encode_ns_per_event", "ns");
    ("evtrace.bytes_per_event", "B"); ("psc.create_s", "s"); ("psc.insert_us_per_item", "us");
    ("psc.combine_s", "s"); ("psc.noise_s", "s"); ("psc.shuffle_s", "s");
    ("psc.rerandomize_s", "s"); ("psc.decrypt_s", "s"); ("psc.estimate_s", "s");
    ("psc.verify_s", "s"); ("psc.alloc_b_per_slot", "B"); ("crypto.proofs_verified", "count");
    ("crypto.proof_batch_mean", "count"); ("crypto.proofs_ok_ratio", "ratio");
    ("bus.messages_per_epoch", "count"); ("bus.bytes_per_epoch", "B"); ("bus.dropped", "count");
    ("deploy.setup_s", "s"); ("deploy.collect_s", "s"); ("deploy.aggregate_s", "s");
    ("deploy.publish_s", "s"); ("bus.overhead_ratio", "ratio"); ("parallel.speedup_jobs2", "ratio");
    ("obs.overhead_ratio", "ratio") ]

type opts = { seed : int; seconds : float; trace : bool; tiny : bool; wrong_reference : bool }

type result = {
  attempted : int;
  failed : int;
  first_failure : string option;
  metrics : (string * float) list;  (** every name of [end_to_end] or [per_layer] *)
  lines : string list;  (** human-readable report *)
}

(* --- the closed loop --- *)

type loop = {
  times : float list;  (** per-job wall seconds, in run order *)
  units : int;
  wall : float;
  alloc : float;  (** Gc.allocated_bytes over the loop (this domain) *)
  jobs : W.job list;
  failures : string list;
}

let run_loop ~seconds job =
  let a0 = Gc.allocated_bytes () in
  let start = W.now () in
  let rec go times units jobs failures =
    if W.now () -. start >= seconds && times <> [] then
      { times = List.rev times; units; wall = W.now () -. start; alloc = Gc.allocated_bytes () -. a0;
        jobs = List.rev jobs; failures = List.rev failures }
    else
      let j, t = W.timed job in
      let failures = match j.W.failure with Some f -> f :: failures | None -> failures in
      go (t :: times) (units + j.W.units) (j :: jobs) failures
  in
  go [] 0 [] []

(* The highest percentile with at least ten jobs beyond it; with fewer
   than eleven jobs there is none, and the slowest job stands in. *)
let tail times =
  let a = Array.of_list times in
  Array.sort compare a;
  let n = Array.length a in
  if n >= 11 then (a.(n - 11), 100. *. float_of_int (n - 10) /. float_of_int n, 10)
  else (a.(n - 1), 100., 0)

let peak_rss_mb () =
  let line =
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find (String.starts_with ~prefix:"VmHWM:")
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

let with_jobs n f =
  Parallel.set_jobs n;
  Fun.protect ~finally:(fun () -> Parallel.set_jobs 1) f

let warm_up o (fx : W.fixture) =
  List.init (if o.tiny then 1 else 2) (fun _ -> fx.run_job ())

let failures_of jobs = List.filter_map (fun (j : W.job) -> j.failure) jobs

let run_workload (w : W.t) o =
  Parallel.set_jobs 1;
  Obs.set_enabled false;
  let reps = if o.tiny || o.trace then 1 else 5 in
  (* Set-up repeats from scratch; its median is setup_s. Only the last
     fixture is kept, and compacting before each repetition frees the
     one before, so the peak RSS holds one fixture. *)
  let rec set_up k times =
    Gc.compact ();
    let fx, t = W.timed (fun () -> w.setup ~tiny:o.tiny ~seed:o.seed ~wrong_reference:o.wrong_reference) in
    if k = 1 then (fx, t :: times) else set_up (k - 1) (t :: times)
  in
  let fx, setup_times = set_up reps [] in
  let warm = warm_up o fx in
  let line fmt = Printf.sprintf fmt in
  let n_warm = List.length warm in
  if not o.trace then begin
    let l = run_loop ~seconds:o.seconds fx.run_job in
    let jobs = List.length l.times in
    let setup_s = W.median setup_times in
    let units_per_s = float_of_int l.units /. l.wall in
    let p50 = W.median l.times in
    let tail_s, pct, beyond = tail l.times in
    let alloc = W.ratio l.alloc (float_of_int l.units) in
    let rss = peak_rss_mb () in
    let failures = failures_of warm @ l.failures in
    let attempted = n_warm + jobs and failed = List.length failures in
    let u = w.unit_name in
    { attempted;
      failed;
      first_failure = List.nth_opt failures 0;
      metrics =
        [ ("setup_s", setup_s); ("units_per_s", units_per_s); ("job_p50_s", p50);
          ("job_tail_s", tail_s); ("alloc_b_per_unit", alloc); ("peak_rss_mb", rss) ];
      lines =
        [ line "setup_s           %.6f s (median of %d set-ups)" setup_s reps;
          line "units_per_s       %.1f %s/s (%d %ss in %.3f s)" units_per_s u l.units u l.wall;
          line "job_p50_s         %.6f s (%d timed jobs after %d warm-up)" p50 jobs n_warm;
          line "job_tail_s        %.6f s (p%.1f of %d jobs, %d beyond)" tail_s pct jobs beyond;
          line "alloc_b_per_unit  %.2f B/%s (jobs 1)" alloc u;
          line "peak_rss_mb       %.1f MB (VmHWM)" rss;
          line "error_rate        %g (%d of %d jobs failed)"
            (W.ratio (float_of_int failed) (float_of_int attempted)) failed attempted ] }
  end
  else begin
    let third = o.seconds /. 3. in
    let plain = run_loop ~seconds:third fx.run_job in
    let job_p50 = W.median plain.times in
    let probe = fx.probe ~job_p50 in
    (* Traced loop: telemetry on, fresh registries per job, per-layer
       values taken as medians over jobs. *)
    let traced_job () =
      Obs.reset ();
      let j = Obs.with_enabled true fx.run_job in
      let layers = w.derive ~probe j (Obs.Ledger.events ()) in
      Obs.reset ();
      { j with W.timers = layers }
    in
    let traced = run_loop ~seconds:third traced_job in
    let jobs2 = if w.speedup_probe then Some (with_jobs 2 (fun () -> run_loop ~seconds:third fx.run_job)) else None in
    let speedup =
      Option.fold jobs2 ~none:[] ~some:(fun l -> [ ("parallel.speedup_jobs2", W.ratio job_p50 (W.median l.times)) ])
    in
    let rate l = W.ratio (float_of_int l.units) l.wall in
    let obs = [ ("obs.overhead_ratio", W.ratio (rate plain) (rate traced)) ] in
    let measured =
      List.map
        (fun (name, _) ->
          (name, W.median (List.filter_map (fun (j : W.job) -> List.assoc_opt name j.timers) traced.jobs)))
        (List.hd traced.jobs).timers
      @ probe @ speedup @ obs
    in
    let metrics = List.map (fun (name, _) -> (name, Option.value ~default:0. (List.assoc_opt name measured))) per_layer in
    let loops = plain :: traced :: Option.to_list jobs2 in
    let failures = failures_of warm @ List.concat_map (fun l -> l.failures) loops in
    let attempted = List.fold_left (fun acc l -> acc + List.length l.times) n_warm loops in
    let lines =
      List.map
        (fun (name, unit) ->
          let v = List.assoc name metrics in
          if List.mem_assoc name measured then line "%-34s %.6g %s" name v unit
          else line "%-34s 0 %s (layer not on this workload's path)" name unit)
        per_layer
    in
    { attempted; failed = List.length failures; first_failure = List.nth_opt failures 0; metrics; lines }
  end

(* --- output --- *)

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_json r units =
  let metrics =
    List.map
      (fun (name, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float v) (List.assoc name units))
      r.metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" (r.failed = 0)
    r.attempted r.failed (String.concat ", " metrics)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The checkout's commit, read from .git without running git (a
   benchmark checkout may not be a repository at all). *)
let git_rev () =
  match String.trim (read_file ".git/HEAD") with
  | exception Sys_error _ -> "none"
  | head when String.starts_with ~prefix:"ref: " head -> (
    let r = String.sub head 5 (String.length head - 5) in
    match String.trim (read_file (".git/" ^ r)) with
    | sha -> sha
    | exception Sys_error _ -> (
      match read_file ".git/packed-refs" with
      | exception Sys_error _ -> "unknown"
      | packed ->
        String.split_on_char '\n' packed
        |> List.find_map (fun l ->
               match String.split_on_char ' ' l with [ sha; n ] when n = r -> Some sha | _ -> None)
        |> Option.value ~default:"unknown"))
  | sha -> sha

(* Digest of the library sources, which identifies the code measured
   when there is no git metadata. *)
let src_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p else [ p ])
  in
  match files "lib" with
  | exception Sys_error _ -> "none"
  | fs -> Digest.to_hex (Digest.string (String.concat "\000" (List.concat_map (fun f -> [ f; read_file f ]) fs)))

let meta_json (w : W.t) o =
  let sizes = List.map (fun (k, v) -> Printf.sprintf "%S: %d" k v) (w.sizes ~tiny:o.tiny) in
  Printf.sprintf
    "{\"meta\": {\"workload\": %S, \"unit\": %S, \"seed\": %d, \"seconds\": %s, \"trace\": %b, \"jobs\": 1, \
     \"git_rev\": %S, \"src_digest\": %S, \"ocamlopt\": %S, \"flambda\": %b, \"nproc\": %d, \"sizes\": {%s}}}"
    w.name w.unit_name o.seed (Printf.sprintf "%g" o.seconds) o.trace (git_rev ()) (src_digest ()) Build_info.ocaml_version
    Build_info.flambda (Domain.recommended_domain_count ()) (String.concat ", " sizes)

let find_workload name = List.find_opt (fun (w : W.t) -> w.name = name) W.all

(* --- self-test --- *)

let count ~sub s =
  let n = String.length sub in
  let rec go i acc = if i + n > String.length s then acc else go (i + 1) (if String.sub s i n = sub then acc + 1 else acc) in
  go 0 0

(* Tiny runs of every workload in both modes must report exactly the
   declared metrics with no failures; BENCHMARK.json and plan.json must
   name every metric; and a deliberately wrong reference must fail
   every job and exit non-zero. *)
let selftest root =
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let spec = read_file (Filename.concat root "BENCHMARK.json") in
  let plan = read_file (Filename.concat root "perfbench/plan.json") in
  let names = List.map fst (end_to_end @ per_layer) in
  List.iter
    (fun n ->
      if count ~sub:(Printf.sprintf "\"name\": %S" n) spec = 0 then fail "BENCHMARK.json lacks %s" n)
    (names @ List.map (fun (w : W.t) -> w.name) W.all);
  let declared = List.length names + List.length W.all in
  if count ~sub:"\"name\": " spec <> declared then
    fail "BENCHMARK.json declares %d names, the benchmark %d" (count ~sub:"\"name\": " spec) declared;
  List.iter (fun (n, _) -> if count ~sub:(Printf.sprintf "%S" n) plan = 0 then fail "plan.json lacks %s" n) per_layer;
  let o = { seed = 3; seconds = 0.3; trace = false; tiny = true; wrong_reference = false } in
  List.iter
    (fun (w : W.t) ->
      List.iter
        (fun (trace, expected) ->
          let r = run_workload w { o with trace } in
          if r.failed > 0 then fail "%s trace=%b: %d failed jobs" w.name trace r.failed;
          if List.map fst r.metrics <> List.map fst expected then fail "%s trace=%b: wrong metric set" w.name trace;
          List.iter
            (fun (n, v) -> if not (Float.is_finite v) then fail "%s: %s is not finite" w.name n)
            r.metrics)
        [ (false, end_to_end); (true, per_layer) ])
    W.all;
  List.iter
    (fun (w : W.t) ->
      let args =
        [| Sys.executable_name; "--workload"; w.name; "--seed"; "3"; "--seconds"; "0.2"; "--trace"; "0";
           "--tiny"; "--wrong-reference" |]
      in
      (* the child's stderr names each failed check; the test reads only its result *)
      let out_r, out_w = Unix.pipe ~cloexec:true () in
      let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
      let pid = Unix.create_process Sys.executable_name args Unix.stdin out_w null in
      Unix.close out_w;
      Unix.close null;
      let out = In_channel.input_all (Unix.in_channel_of_descr out_r) in
      Unix.close out_r;
      (match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> fail "%s with a wrong reference exited 0" w.name
      | _ -> ());
      let last = List.fold_left (fun acc l -> if l = "" then acc else l) "" (String.split_on_char '\n' out) in
      match Scanf.sscanf last "{\"correct\": %B, \"attempted\": %d, \"failed\": %d" (fun c a f -> (c, a, f)) with
      | false, a, f when a = f && a > 0 -> ()
      | _ -> fail "%s with a wrong reference: error_rate is not 1: %s" w.name last
      | exception _ -> fail "%s with a wrong reference printed no result" w.name)
    W.all;
  match List.rev !errors with
  | [] ->
    print_endline "perfbench selftest: ok";
    0
  | es ->
    List.iter prerr_endline es;
    1

(* --- command line --- *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--tiny] [--wrong-reference]\n\
    \       bench.exe --selftest ROOT\n\
     workloads: netday-live replay-ingest psc-round deploy-epochs";
  2

let main argv =
  let workload = ref None and seed = ref 1 and seconds = ref 10. and trace = ref false in
  let tiny = ref false and wrong = ref false and selftest_root = ref None in
  let rec parse = function
    | [] -> true
    | "--workload" :: v :: rest -> workload := Some v; parse rest
    | "--seed" :: v :: rest -> Option.fold ~none:false ~some:(fun n -> seed := n; parse rest) (int_of_string_opt v)
    | "--seconds" :: v :: rest -> (
      match float_of_string_opt v with Some s when s > 0. -> seconds := s; parse rest | _ -> false)
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := v = "1"; parse rest
    | "--tiny" :: rest -> tiny := true; parse rest
    | "--wrong-reference" :: rest -> wrong := true; parse rest
    | "--selftest" :: root :: rest -> selftest_root := Some root; parse rest
    | _ -> false
  in
  if not (parse (List.tl (Array.to_list argv))) then usage ()
  else
    match (!selftest_root, Option.map find_workload !workload) with
    | Some root, _ -> selftest root
    | None, Some (Some w) ->
      let o = { seed = !seed; seconds = !seconds; trace = !trace; tiny = !tiny; wrong_reference = !wrong } in
      let r = run_workload w o in
      List.iter print_endline r.lines;
      Option.iter (fun f -> Printf.eprintf "perfbench: %s: job failed: %s\n" w.name f) r.first_failure;
      print_endline (meta_json w o);
      print_endline (result_json r (if o.trace then per_layer else end_to_end));
      if r.failed = 0 then 0 else 1
    | None, _ -> usage ()

let () = exit (main Sys.argv)
