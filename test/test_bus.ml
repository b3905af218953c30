(* lib/bus and the deployment runtime: codec/envelope round-trips and
   typed error paths (QCheck), scheduler determinism and seed
   sensitivity, checkpoint persistence, and the deploy scenarios end to
   end — the acceptance criteria of the distributed-deployment work:
   bus-published tallies byte-identical to the in-process pipelines,
   malicious-CP detection with a failed-proof ledger event, and
   restart-from-checkpoint reproducing the benign bytes exactly. *)

let scenario name =
  match Bus.Scenario.find name with
  | Some s -> s
  | None -> Alcotest.failf "unknown scenario %s" name

(* --- envelope codec properties --- *)

let party_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return Bus.Party.Ts);
        (3, map (fun i -> Bus.Party.Dc i) (int_bound 50));
        (3, map (fun i -> Bus.Party.Sk i) (int_bound 50));
        (3, map (fun i -> Bus.Party.Cp i) (int_bound 50));
      ])

let envelope_gen =
  QCheck.Gen.(
    small_nat >>= fun epoch ->
    small_nat >>= fun seq ->
    party_gen >>= fun src ->
    party_gen >>= fun dst ->
    string_size ~gen:printable (int_bound 12) >>= fun kind ->
    string_size (int_bound 200) >>= fun body ->
    return { Bus.Envelope.epoch; seq; src; dst; kind; body })

let arb_envelope = QCheck.make ~print:Bus.Envelope.to_string envelope_gen

let prop_envelope_roundtrip =
  QCheck.Test.make ~name:"envelope encode/decode round-trip" ~count:300
    arb_envelope (fun e ->
      match Bus.Envelope.decode (Bus.Envelope.encode e) with
      | Ok e' -> Bus.Envelope.equal e e'
      | Error _ -> false)

let prop_envelope_truncated =
  QCheck.Test.make ~name:"every strict prefix decodes to Truncated" ~count:300
    QCheck.(pair arb_envelope small_nat)
    (fun (e, cut) ->
      let s = Bus.Envelope.encode e in
      let cut = cut mod String.length s in
      match Bus.Envelope.decode (String.sub s 0 cut) with
      | Error Bus.Codec.Truncated -> true
      | Ok _ | Error _ -> false)

let prop_envelope_garbage_total =
  QCheck.Test.make ~name:"arbitrary bytes never raise, only typed errors"
    ~count:500
    QCheck.(string_of_size (QCheck.Gen.int_bound 64))
    (fun s ->
      match Bus.Envelope.decode s with Ok _ -> true | Error _ -> true)

let test_envelope_error_paths () =
  let e =
    {
      Bus.Envelope.epoch = 3;
      seq = 7;
      src = Bus.Party.Dc 1;
      dst = Bus.Party.Ts;
      kind = "pc.dc_report";
      body = "payload";
    }
  in
  let s = Bus.Envelope.encode e in
  (* byte 3 is the version (after the 3-byte magic) *)
  let bumped = Bytes.of_string s in
  Bytes.set bumped 3 (Char.chr 2);
  (match Bus.Envelope.decode (Bytes.to_string bumped) with
  | Error (Bus.Codec.Unsupported_version 2) -> ()
  | _ -> Alcotest.fail "expected Unsupported_version 2");
  let wrong_magic = Bytes.of_string s in
  Bytes.set wrong_magic 0 'X';
  (match Bus.Envelope.decode (Bytes.to_string wrong_magic) with
  | Error Bus.Codec.Bad_magic -> ()
  | _ -> Alcotest.fail "expected Bad_magic");
  (match Bus.Envelope.decode (s ^ "\x00") with
  | Error (Bus.Codec.Trailing 1) -> ()
  | _ -> Alcotest.fail "expected Trailing 1")

(* --- pipeline wire messages --- *)

let check_pc_roundtrip m =
  let bytes = Privcount.Wire.encode m in
  match Privcount.Wire.decode ~kind:(Privcount.Wire.kind m) bytes with
  | Ok m' ->
    Alcotest.(check string) "pc wire round-trip" bytes (Privcount.Wire.encode m')
  | Error e -> Alcotest.failf "pc wire: %s" (Bus.Codec.error_to_string e)

let test_privcount_wire () =
  List.iter check_pc_roundtrip
    [
      Privcount.Wire.Blind_shares { sk = 1; counters = [| 0; 5; 17; 123456789 |] };
      Privcount.Wire.Report_request;
      Privcount.Wire.Dc_report [ ("exit.bytes", 42); ("exit.circuits", 7) ];
      Privcount.Wire.Sk_report_request { exclude_dcs = [ 0; 2 ] };
      Privcount.Wire.Sk_report [ ("exit.bytes", 99) ];
    ];
  (match Privcount.Wire.decode ~kind:"psc.table" "" with
  | Error (Bus.Codec.Invalid _) -> ()
  | _ -> Alcotest.fail "unknown kind must be Invalid");
  let results =
    [
      { Privcount.Ts.name = "a"; value = -3.25; sigma = 1.5; ci = Stats.Ci.make (-5.0) 2.0 };
      { Privcount.Ts.name = "b"; value = 1e17; sigma = 0.0; ci = Stats.Ci.make 0.0 0.0 };
    ]
  in
  let bytes = Privcount.Wire.encode_results results in
  match Privcount.Wire.decode_results bytes with
  | Ok rs ->
    Alcotest.(check string) "results round-trip exactly" bytes
      (Privcount.Wire.encode_results rs)
  | Error e -> Alcotest.failf "results: %s" (Bus.Codec.error_to_string e)

(* Real proofs must still verify after crossing the wire: membership
   and structure checks on decode are not allowed to weaken them. *)
let test_psc_wire_proofs () =
  let cp0 = Psc.Cp.create ~id:0 ~seed:42 in
  let cp1 = Psc.Cp.create ~id:1 ~seed:42 in
  let joint =
    Crypto.Elgamal.joint_pub [ Psc.Cp.public_key cp0; Psc.Cp.public_key cp1 ]
  in
  let tab = Crypto.Group.precomp joint in
  let slots = Psc.Cp.noise_slots_proven ~tab cp0 ~joint ~flips:6 in
  (match
     Psc.Wire.decode ~kind:"psc.noise" (Psc.Wire.encode (Psc.Wire.Noise_slots slots))
   with
  | Ok (Psc.Wire.Noise_slots slots') ->
    Alcotest.(check int) "slot count" (Array.length slots) (Array.length slots');
    Array.iter
      (fun (ct, proof) ->
        Alcotest.(check bool) "bit proof verifies after decode" true
          (Crypto.Bit_proof.verify ~pk_tab:tab ~pk:joint ct proof))
      slots'
  | Ok _ -> Alcotest.fail "decoded to the wrong constructor"
  | Error e -> Alcotest.failf "noise: %s" (Bus.Codec.error_to_string e));
  let drbg = Crypto.Drbg.create "test-bus-vector" in
  let input =
    Array.init 8 (fun _ -> Crypto.Elgamal.encrypt drbg joint Crypto.Elgamal.marker)
  in
  let output, proof = Psc.Cp.shuffle cp1 ~joint ~rounds:(Some 4) input in
  let proof = match proof with Some p -> p | None -> Alcotest.fail "no proof" in
  match
    Psc.Wire.decode ~kind:"psc.shuffled"
      (Psc.Wire.encode (Psc.Wire.Shuffled { output; proof = Some proof }))
  with
  | Ok (Psc.Wire.Shuffled { output = output'; proof = Some proof' }) ->
    Alcotest.(check bool) "shuffle proof verifies after decode" true
      (Crypto.Shuffle.verify joint ~input ~output:output' proof')
  | Ok _ -> Alcotest.fail "decoded to the wrong constructor"
  | Error e -> Alcotest.failf "shuffled: %s" (Bus.Codec.error_to_string e)

(* --- every wire kind on hostile input --- *)

(* One message of every PSC and PrivCount kind (optional proofs both
   present and absent), built from real group values, each paired with
   a decoder that forgets the decoded value. *)
let wire_samples =
  let cp = Psc.Cp.create ~id:0 ~seed:3 in
  let joint = Psc.Cp.public_key cp in
  let drbg = Crypto.Drbg.create "test-bus-samples" in
  let cts = Array.init 3 (fun _ -> Crypto.Elgamal.encrypt drbg joint Crypto.Elgamal.marker) in
  let output, proof = Psc.Cp.shuffle cp ~joint ~rounds:(Some 2) cts in
  let share = Psc.Cp.decrypt_shares cp output in
  let psc =
    Psc.Wire.
      [ Cp_key { pub = joint; proof = Psc.Cp.key_proof cp };
        Joint { joint };
        Table_request;
        Table_submit cts;
        Noise_request { flips = 4 };
        Noise_slots (Psc.Cp.noise_slots_proven cp ~joint ~flips:2);
        Noise_plain (Psc.Cp.noise_slots cp ~joint ~flips:2);
        Shuffle_request { vector = cts; rounds = Some 2 };
        Shuffle_request { vector = cts; rounds = None };
        Shuffled { output; proof };
        Shuffled { output; proof = None };
        Rerand_request cts;
        Rerandomized cts;
        Decrypt_request cts;
        Decrypt_share { shares = share.Psc.Cp.shares; proofs = share.Psc.Cp.proofs };
        Decrypt_share { shares = share.Psc.Cp.shares; proofs = None } ]
  in
  let pc =
    Privcount.Wire.
      [ Blind_shares { sk = 1; counters = [| 0; 5; 123456789 |] };
        Report_request;
        Dc_report [ ("exit.bytes", 42); ("exit.circuits", 7) ];
        Sk_report_request { exclude_dcs = [ 0; 2 ] };
        Sk_report [ ("exit.bytes", 99) ] ]
  in
  List.map
    (fun m ->
      ( Psc.Wire.kind m,
        Psc.Wire.encode m,
        fun ~kind b -> Result.map ignore (Psc.Wire.decode ~kind b) ))
    psc
  @ List.map
      (fun m ->
        ( Privcount.Wire.kind m,
          Privcount.Wire.encode m,
          fun ~kind b -> Result.map ignore (Privcount.Wire.decode ~kind b) ))
      pc

let test_wire_samples_cover_every_kind () =
  Alcotest.(check (list string)) "every psc.* and pc.* kind"
    [ "pc.blind"; "pc.dc_report"; "pc.report_req"; "pc.sk_report"; "pc.sk_report_req";
      "psc.cp_key"; "psc.decrypt"; "psc.decrypt_req"; "psc.joint"; "psc.noise";
      "psc.noise_plain"; "psc.noise_req"; "psc.rerand"; "psc.rerand_req"; "psc.shuffle_req";
      "psc.shuffled"; "psc.table"; "psc.table_req" ]
    (List.sort_uniq String.compare (List.map (fun (k, _, _) -> k) wire_samples));
  List.iter
    (fun (kind, body, decode) ->
      match decode ~kind body with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" kind (Bus.Codec.error_to_string e))
    wire_samples

let prop_wire_prefix_error =
  QCheck.Test.make ~name:"every strict prefix of a psc/pc message is an Error" ~count:500
    QCheck.(pair (int_bound (List.length wire_samples - 1)) small_nat)
    (fun (i, cut) ->
      let kind, body, decode = List.nth wire_samples i in
      body = ""
      || match decode ~kind (String.sub body 0 (cut mod String.length body)) with
         | Error _ -> true
         | Ok () -> false)

(* Bytes built from varint-shaped tokens (small values, continuation
   bytes, 9-byte varints whose last group sets the sign bit): uniform
   bytes almost never build the varints that once decoded to negative
   lengths. *)
let hostile_bytes =
  QCheck.make ~print:String.escaped
    QCheck.Gen.(
      map (String.concat "")
        (list_size (int_bound 12)
           (oneof
              [ map (String.make 1) char;
                oneofl
                  [ "\x00"; "\x01"; "\x80"; "\x80\x80\x80\x80\x80\x80\x80\x80\x40";
                    "\xff\xff\xff\xff\xff\xff\xff\xff\x7f" ] ])))

let prop_wire_garbage_total =
  QCheck.Test.make ~name:"arbitrary bytes never raise for any psc/pc kind" ~count:400
    hostile_bytes (fun s ->
      List.for_all
        (fun (kind, _, decode) -> match decode ~kind s with Ok () | Error _ -> true)
        wire_samples)

(* A 9-byte varint whose last group sets bit 62 used to decode to a
   negative length and reach Array.make. *)
let test_negative_length_rejected () =
  let overflow = Bus.Codec.Invalid "varint overflow" in
  let check what = function
    | Error e when e = overflow -> ()
    | Error e -> Alcotest.failf "%s: %s" what (Bus.Codec.error_to_string e)
    | Ok _ -> Alcotest.failf "%s: decoded" what
  in
  check "varint" (Bus.Codec.decode "\x80\x80\x80\x80\x80\x80\x80\x80\x40" Bus.Codec.R.varint);
  check "psc.shuffled"
    (Psc.Wire.decode ~kind:"psc.shuffled" "\x00\x01\x80\x80\x80\x80\x80\x80\x80\x80\x40");
  check "pc.blind"
    (Privcount.Wire.decode ~kind:"pc.blind" "\x00\x80\x80\x80\x80\x80\x80\x80\x80\x40")

(* --- scheduler determinism --- *)

(* a 4-party token ring: each delivery decrements a ttl and forwards,
   so one run exercises posting from inside handlers *)
let ring_digest ~seed =
  let s = Bus.Sched.create ~record_order:true ~seed () in
  for i = 0 to 3 do
    Bus.Sched.register s (Bus.Party.Dc i) (fun env ->
        let ttl = int_of_string env.Bus.Envelope.body in
        if ttl > 0 then
          Bus.Sched.post s ~epoch:0 ~src:(Bus.Party.Dc i)
            ~dst:(Bus.Party.Dc ((i + 1) mod 4))
            ~kind:"tok"
            ~body:(string_of_int (ttl - 1));
        true)
  done;
  Bus.Sched.post s ~epoch:0 ~src:Bus.Party.Ts ~dst:(Bus.Party.Dc 0) ~kind:"tok"
    ~body:"25";
  Bus.Sched.post s ~epoch:0 ~src:Bus.Party.Ts ~dst:(Bus.Party.Dc 2) ~kind:"tok"
    ~body:"13";
  let stats = Bus.Sched.run s in
  (Bus.Sched.order_digest s, stats)

let test_sched_determinism () =
  let d1, s1 = ring_digest ~seed:5 in
  let d2, s2 = ring_digest ~seed:5 in
  Alcotest.(check string) "same seed, same delivery order" d1 d2;
  Alcotest.(check int) "same seed, same delivery count" s1.Bus.Sched.delivered
    s2.Bus.Sched.delivered;
  let d3, _ = ring_digest ~seed:6 in
  Alcotest.(check bool) "different seed, different interleaving" true (d1 <> d3)

let test_sched_crash_and_unclaimed () =
  let s = Bus.Sched.create ~seed:1 () in
  let hits = ref 0 in
  Bus.Sched.register s (Bus.Party.Dc 0) (fun _ -> incr hits; true);
  Bus.Sched.crash s (Bus.Party.Dc 0);
  Bus.Sched.post s ~epoch:0 ~src:Bus.Party.Ts ~dst:(Bus.Party.Dc 0) ~kind:"x"
    ~body:"";
  let stats = Bus.Sched.run s in
  Alcotest.(check int) "crashed party's mail dropped" 1 stats.Bus.Sched.dropped;
  Alcotest.(check int) "crashed handler never runs" 0 !hits;
  let s2 = Bus.Sched.create ~seed:1 () in
  Bus.Sched.register s2 (Bus.Party.Dc 0) (fun _ -> false);
  Bus.Sched.post s2 ~epoch:0 ~src:Bus.Party.Ts ~dst:(Bus.Party.Dc 0) ~kind:"x"
    ~body:"";
  match Bus.Sched.run s2 with
  | _ -> Alcotest.fail "unclaimed envelope must raise"
  | exception Invalid_argument _ -> ()

(* --- checkpoints --- *)

let sample_checkpoint =
  {
    Bus.Checkpoint.seed = 11;
    scenario = "benign";
    epoch = 1;
    phase = "collect";
    entries =
      [
        { Bus.Checkpoint.party = Bus.Party.Dc 0; state = "\x00binary\xffblob" };
        { Bus.Checkpoint.party = Bus.Party.Sk 1; state = "" };
      ];
  }

let test_checkpoint_roundtrip () =
  let bytes = Bus.Checkpoint.encode sample_checkpoint in
  (match Bus.Checkpoint.decode bytes with
  | Ok cp ->
    Alcotest.(check string) "checkpoint re-encodes identically" bytes
      (Bus.Checkpoint.encode cp);
    Alcotest.(check (option string)) "find dc blob" (Some "\x00binary\xffblob")
      (Bus.Checkpoint.find cp (Bus.Party.Dc 0));
    Alcotest.(check (option string)) "find missing party" None
      (Bus.Checkpoint.find cp (Bus.Party.Cp 0))
  | Error e -> Alcotest.failf "decode: %s" (Bus.Codec.error_to_string e));
  (match Bus.Checkpoint.decode (String.sub bytes 0 (String.length bytes - 1)) with
  | Error Bus.Codec.Truncated -> ()
  | _ -> Alcotest.fail "truncated checkpoint must be Truncated");
  let path = Filename.temp_file "tormeasure-ckpt" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Bus.Checkpoint.save path sample_checkpoint;
      match Bus.Checkpoint.load path with
      | Ok cp ->
        Alcotest.(check string) "file round-trip" bytes (Bus.Checkpoint.encode cp)
      | Error e -> Alcotest.failf "load: %s" (Bus.Codec.error_to_string e));
  match Bus.Checkpoint.load "/nonexistent/tormeasure.ckpt" with
  | Error (Bus.Codec.Invalid _) -> ()
  | _ -> Alcotest.fail "unreadable file must be Invalid"

let test_scenario_catalogue () =
  Alcotest.(check (list string))
    "catalogue names"
    [ "benign"; "dc-crash"; "churn"; "slow-cp"; "malicious-cp"; "restart" ]
    (Bus.Scenario.names ());
  Alcotest.(check bool) "find hit" true (Bus.Scenario.find "restart" <> None);
  Alcotest.(check bool) "find miss" true (Bus.Scenario.find "nope" = None);
  let hooks =
    {
      Bus.Lifecycle.setup = (fun ~epoch:_ -> ());
      collect = (fun ~epoch:_ -> ());
      aggregate = (fun ~epoch:_ -> ());
      publish = (fun ~epoch:_ -> ());
      checkpoint = (fun ~epoch:_ -> sample_checkpoint);
      restore = (fun _ -> ());
    }
  in
  match Bus.Lifecycle.run ~epochs:0 hooks with
  | _ -> Alcotest.fail "epochs 0 must be rejected"
  | exception Invalid_argument _ -> ()

(* --- deploy scenarios end-to-end --- *)

let deploy_cfg ?(epochs = 1) () = Tormeasure.Deploy.default_config ~seed:11 ~epochs ()

let test_deploy_benign_matches_reference () =
  let cfg = deploy_cfg ~epochs:2 () in
  let o = Tormeasure.Deploy.run cfg (scenario "benign") in
  Alcotest.(check string) "bus bytes = in-process bytes"
    (Tormeasure.Deploy.run_reference cfg (scenario "benign"))
    o.Tormeasure.Deploy.digest;
  Alcotest.(check int) "one order digest per epoch" 2
    (List.length o.Tormeasure.Deploy.order_digests);
  Alcotest.(check bool) "no drops in a benign run" true
    (List.for_all (fun (s : Bus.Sched.stats) -> s.dropped = 0) o.Tormeasure.Deploy.stats);
  Alcotest.(check bool) "nothing detected" false o.Tormeasure.Deploy.detected

let test_deploy_jobs_invariance () =
  let cfg = deploy_cfg () in
  let before = Parallel.jobs () in
  Fun.protect
    ~finally:(fun () -> Parallel.set_jobs before)
    (fun () ->
      Parallel.set_jobs 1;
      let d1 = (Tormeasure.Deploy.run cfg (scenario "benign")).Tormeasure.Deploy.digest in
      Parallel.set_jobs 4;
      let d4 = (Tormeasure.Deploy.run cfg (scenario "benign")).Tormeasure.Deploy.digest in
      Alcotest.(check string) "published bytes identical at any pool size" d1 d4)

let test_deploy_dc_crash () =
  let cfg = deploy_cfg () in
  let o = Tormeasure.Deploy.run cfg (scenario "dc-crash") in
  let p = List.hd o.Tormeasure.Deploy.publishes in
  Alcotest.(check (list int)) "DC 1 never reported" [ 1 ]
    p.Tormeasure.Deploy.missing_dcs;
  Alcotest.(check bool) "its mail was dropped" true
    ((List.hd o.Tormeasure.Deploy.stats).Bus.Sched.dropped > 0);
  (* the same events through the in-process round, with the crashed
     DC's post-crash observations lost and its report dropped *)
  let wl = Tormeasure.Deploy.workload cfg ~epoch:0 ~live:cfg.Tormeasure.Deploy.num_dcs in
  let round =
    Privcount.Deployment.create
      (Privcount.Deployment.config ~num_sks:cfg.Tormeasure.Deploy.num_sks
         Tormeasure.Deploy.counter_specs)
      ~num_dcs:cfg.Tormeasure.Deploy.num_dcs ~seed:cfg.Tormeasure.Deploy.seed
  in
  let half = Array.length wl.Tormeasure.Deploy.pc_events / 2 in
  Array.iteri
    (fun i (dc, name, by) ->
      if not (i >= half && dc = 1) then
        Privcount.Deployment.increment round ~dc ~name ~by)
    wl.Tormeasure.Deploy.pc_events;
  Alcotest.(check string) "dropout recovery = in-process dropped_dcs"
    (Privcount.Wire.encode_results (Privcount.Deployment.tally ~dropped_dcs:[ 1 ] round))
    p.Tormeasure.Deploy.pc_bytes

let test_deploy_malicious_cp () =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      let o = Tormeasure.Deploy.run (deploy_cfg ()) (scenario "malicious-cp") in
      Alcotest.(check bool) "misbehaviour detected" true o.Tormeasure.Deploy.detected;
      Alcotest.(check (list int)) "CP 1 blamed" [ 1 ] o.Tormeasure.Deploy.culprits;
      let p = List.hd o.Tormeasure.Deploy.publishes in
      Alcotest.(check bool) "published result marks failed proofs" false
        p.Tormeasure.Deploy.psc.Psc.Protocol.proofs_ok;
      let failed_shuffle =
        List.exists
          (function
            | Obs.Ledger.Proof { kind = "psc-shuffle"; party = 1; ok = false; _ } ->
              true
            | _ -> false)
          (Obs.Ledger.events ())
      in
      Alcotest.(check bool) "ledger records the failed shuffle proof" true
        failed_shuffle;
      let audit = Obs.Ledger.audit (Obs.Ledger.events ()) in
      Alcotest.(check bool) "audit fails the run" false audit.Obs.Ledger.ok)

(* The bus hosts the same parties as the in-process round, so each CP
   times its own shuffle and rerandomization: per epoch, every CP in
   turn has one [psc.shuffle] row, the TS's check of that shuffle, and
   one [psc.rerandomize] row. *)
let test_deploy_per_cp_phases () =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      let cfg = deploy_cfg ~epochs:2 () in
      ignore (Tormeasure.Deploy.run cfg (scenario "benign"));
      let rows =
        List.filter_map
          (function
            | Obs.Ledger.Phase { name = ("psc.shuffle" | "psc.rerandomize") as name; _ } ->
              Some name
            | Obs.Ledger.Proof { kind = "psc-shuffle"; party; ok = true; _ } ->
              Some (Printf.sprintf "check %d" party)
            | _ -> None)
          (Obs.Ledger.events ())
      in
      let per_epoch =
        List.concat_map
          (fun cp -> [ "psc.shuffle"; Printf.sprintf "check %d" cp; "psc.rerandomize" ])
          (List.init cfg.Tormeasure.Deploy.num_cps Fun.id)
      in
      Alcotest.(check (list string)) "one shuffle and one rerandomize row per CP per epoch"
        (per_epoch @ per_epoch) rows)

let test_deploy_restart_byte_identical () =
  let cfg = deploy_cfg ~epochs:2 () in
  let benign = Tormeasure.Deploy.run cfg (scenario "benign") in
  let restarted = Tormeasure.Deploy.run cfg (scenario "restart") in
  Alcotest.(check int) "one restart happened" 1 restarted.Tormeasure.Deploy.restarts;
  Alcotest.(check string) "restart reproduces the benign bytes exactly"
    benign.Tormeasure.Deploy.digest restarted.Tormeasure.Deploy.digest;
  Alcotest.(check (list string)) "even the delivery order replays"
    benign.Tormeasure.Deploy.order_digests restarted.Tormeasure.Deploy.order_digests;
  match restarted.Tormeasure.Deploy.last_checkpoint with
  | None -> Alcotest.fail "no checkpoint captured"
  | Some cp ->
    Alcotest.(check int) "last checkpoint is the final epoch's" 1
      cp.Bus.Checkpoint.epoch;
    (* 3 DC entries (both pipelines in one blob) + 2 SK entries *)
    Alcotest.(check int) "entries cover every stateful party" 5
      (List.length cp.Bus.Checkpoint.entries)

let test_deploy_slow_cp_schedule_only () =
  let cfg = deploy_cfg () in
  let benign = Tormeasure.Deploy.run cfg (scenario "benign") in
  let slow = Tormeasure.Deploy.run cfg (scenario "slow-cp") in
  Alcotest.(check string) "same published bytes" benign.Tormeasure.Deploy.digest
    slow.Tormeasure.Deploy.digest;
  Alcotest.(check bool) "but a different delivery schedule" true
    (benign.Tormeasure.Deploy.order_digests <> slow.Tormeasure.Deploy.order_digests)

let test_deploy_churn_matches_reference () =
  let cfg = deploy_cfg ~epochs:2 () in
  let o = Tormeasure.Deploy.run cfg (scenario "churn") in
  Alcotest.(check string) "per-epoch deployment sizes re-derive in-process"
    (Tormeasure.Deploy.run_reference cfg (scenario "churn"))
    o.Tormeasure.Deploy.digest

(* Published-bytes digest and per-epoch delivery-order digests of every
   catalogue scenario (default config, 2 epochs, seed 11), pinned: the
   oracle for the bus deployment, independent of [run_reference]. *)
let golden_deploys =
  [ ("benign", "d753e27fa35bc5e21ec2753f6d47069125f9f0d41a3aa425393f5d56a88cb1e6",
     [ "299930a01de0ac39513e69462ade339d8ecbc42160685d80aebb44fadd424c20";
       "78f9116f8e9fe083a7cbfe3437d866588c4365df9eb71cee1e73e7f9ad8bbdde" ]);
    ("dc-crash", "15e959ca4ff77e87cf88e7abc12c57c6a1b96020d78fb822474bf09f4dfdb10e",
     [ "b9a191f3c1417131fcb358a2f9554253e097143a47b81319b6b992f25517a363";
       "78f9116f8e9fe083a7cbfe3437d866588c4365df9eb71cee1e73e7f9ad8bbdde" ]);
    ("churn", "c962d2d84a55a93f2b76bd7ea12848ee1e01d284c793cf511f9e532617fab64a",
     [ "299930a01de0ac39513e69462ade339d8ecbc42160685d80aebb44fadd424c20";
       "923cf4253e272a41a9447693a82c1b1eacb14392a4ac6d7a8b76b9c03f8c3122" ]);
    ("slow-cp", "d753e27fa35bc5e21ec2753f6d47069125f9f0d41a3aa425393f5d56a88cb1e6",
     [ "1c593126b45db7da764173b29cee52b30ae34d8630052bfca2ca779d017677fe";
       "45fdb0d9c6ee97ca58b5c90270926596ae7fb8021750bf545679e47ba1ebe364" ]);
    ("malicious-cp", "2c2f94bf000472e0bd16bc99f511d7c4538350a737fae636042045ba5d3c3472",
     [ "d07a29d12a90ae18067cf589699f9cab09018ca9666c10faafabaa811dd6266b";
       "192d8fc5bbfb35e8d84856dfb061739638cd8f8fe905ca737922ce595824920e" ]);
    ("restart", "d753e27fa35bc5e21ec2753f6d47069125f9f0d41a3aa425393f5d56a88cb1e6",
     [ "299930a01de0ac39513e69462ade339d8ecbc42160685d80aebb44fadd424c20";
       "78f9116f8e9fe083a7cbfe3437d866588c4365df9eb71cee1e73e7f9ad8bbdde" ]) ]

let golden_deploy_cases =
  List.map
    (fun (name, digest, orders) ->
      Alcotest.test_case name `Quick (fun () ->
          let o = Tormeasure.Deploy.run (deploy_cfg ~epochs:2 ()) (scenario name) in
          Alcotest.(check string) "published digest" digest o.Tormeasure.Deploy.digest;
          Alcotest.(check (list string)) "delivery order" orders
            o.Tormeasure.Deploy.order_digests))
    golden_deploys

let () =
  Alcotest.run "bus"
    [
      ( "codec",
        [
          QCheck_alcotest.to_alcotest prop_envelope_roundtrip;
          QCheck_alcotest.to_alcotest prop_envelope_truncated;
          QCheck_alcotest.to_alcotest prop_envelope_garbage_total;
          Alcotest.test_case "version/magic/trailing errors" `Quick
            test_envelope_error_paths;
        ] );
      ( "wire",
        [
          Alcotest.test_case "privcount messages" `Quick test_privcount_wire;
          Alcotest.test_case "psc proofs survive the wire" `Quick
            test_psc_wire_proofs;
          Alcotest.test_case "samples cover every kind" `Quick
            test_wire_samples_cover_every_kind;
          QCheck_alcotest.to_alcotest prop_wire_prefix_error;
          QCheck_alcotest.to_alcotest prop_wire_garbage_total;
          Alcotest.test_case "negative lengths rejected" `Quick test_negative_length_rejected;
        ] );
      ( "sched",
        [
          Alcotest.test_case "seeded determinism" `Quick test_sched_determinism;
          Alcotest.test_case "crash and unclaimed mail" `Quick
            test_sched_crash_and_unclaimed;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "round-trip and files" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "scenario catalogue" `Quick test_scenario_catalogue;
        ] );
      ( "deploy",
        [
          Alcotest.test_case "benign = in-process bytes" `Quick
            test_deploy_benign_matches_reference;
          Alcotest.test_case "pool-size invariance" `Quick test_deploy_jobs_invariance;
          Alcotest.test_case "dc-crash dropout recovery" `Quick test_deploy_dc_crash;
          Alcotest.test_case "malicious CP detected" `Quick test_deploy_malicious_cp;
          Alcotest.test_case "per-CP phase rows" `Quick test_deploy_per_cp_phases;
          Alcotest.test_case "restart byte-identical" `Quick
            test_deploy_restart_byte_identical;
          Alcotest.test_case "slow CP changes schedule only" `Quick
            test_deploy_slow_cp_schedule_only;
          Alcotest.test_case "churn = in-process bytes" `Quick
            test_deploy_churn_matches_reference;
        ] );
      ("golden", golden_deploy_cases);
    ]
