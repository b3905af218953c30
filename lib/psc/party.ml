(* The PSC parties. Per-CP DRBG draw order is the determinism
   invariant: create (keygen), key proof, noise, shuffle, rerandomize,
   decrypt — the TS's requests reach each CP in exactly that order on
   any transport. *)

type send = Bus.Party.t -> Wire.msg -> unit
type 'a t = { state : 'a; handle : Bus.Party.t -> Wire.msg -> unit }

let unexpected who src m =
  invalid_arg
    (Printf.sprintf "Party.%s: unexpected %s from %s" who (Wire.kind m)
       (Bus.Party.to_string src))

let jobs_attr () = ("jobs", string_of_int (Parallel.jobs ()))
let by_id l = List.sort (fun (a, _) (b, _) -> Int.compare a b) l

(* ------------------------------------------------------------------ *)
(* Computation party *)

let cp (cfg : Round.config) ~seed ~id send =
  let cp = Cp.create ~id ~seed in
  let reply m = send Bus.Party.Ts m in
  reply (Wire.Cp_key { pub = Cp.public_key cp; proof = Cp.key_proof cp });
  let tamper =
    match cfg.tamper with
    | Some { tampered_cp; action } when tampered_cp = id ->
        Some (action, Crypto.Drbg.create "psc-tamper")
    | _ -> None
  in
  let joint = ref None in
  let joint_exn () =
    match !joint with
    | Some j -> j
    | None -> invalid_arg "Party.cp: request before joint key"
  in
  let phase name f =
    Obs.Ledger.phase name ~attrs:[ ("cp", string_of_int id); jobs_attr () ] f
  in
  let handle src = function
    | Wire.Joint { joint = j } -> joint := Some (j, Crypto.Group.precomp j)
    | Wire.Noise_request { flips } when cfg.verify ->
        let j, tab = joint_exn () in
        let proven = Cp.noise_slots_proven ~tab cp ~joint:j ~flips in
        (match tamper with
        | Some (`Noise_nonbit, drbg) when Array.length proven > 0 ->
            (* Byzantine: inject Enc(marker^2) as "noise" with a forged
               bit proof *)
            let r = Crypto.Group.random_exp drbg in
            let bad =
              Crypto.Elgamal.encrypt_with ~r j
                (Crypto.Group.mul Crypto.Elgamal.marker Crypto.Elgamal.marker)
            in
            proven.(0) <- (bad, Crypto.Bit_proof.prove drbg ~pk:j ~r ~bit:true bad)
        | _ -> ());
        reply (Wire.Noise_slots proven)
    | Wire.Noise_request { flips } ->
        let j, tab = joint_exn () in
        reply (Wire.Noise_plain (Cp.noise_slots ~tab cp ~joint:j ~flips))
    | Wire.Shuffle_request { vector; rounds } ->
        let j, tab = joint_exn () in
        let output, proof =
          phase "psc.shuffle" (fun () -> Cp.shuffle ~tab cp ~joint:j ~rounds vector)
        in
        (match tamper with
        | Some (`Shuffle_swap, drbg) when Array.length output > 0 ->
            (* Byzantine: substitute a slot after shuffling and keep the
               honest proof; the verifier must catch the mismatch *)
            output.(0) <- Crypto.Elgamal.encrypt drbg j Crypto.Elgamal.marker
        | _ -> ());
        reply (Wire.Shuffled { output; proof })
    | Wire.Rerand_request vector ->
        reply
          (Wire.Rerandomized (phase "psc.rerandomize" (fun () -> Cp.rerandomize_bits cp vector)))
    | Wire.Decrypt_request vector ->
        let share = Cp.decrypt_shares cp ~prove:cfg.verify vector in
        reply (Wire.Decrypt_share { shares = share.Cp.shares; proofs = share.Cp.proofs })
    | m -> unexpected "cp" src m
  in
  { state = (); handle }

(* ------------------------------------------------------------------ *)
(* Data collector *)

type dc = { mutable table : Table.t option }

let dc_table t =
  match t.table with
  | Some table -> table
  | None -> invalid_arg "Party.dc: joint key not yet received"

let dc_insert t item = Table.insert (dc_table t) item

let dc (cfg : Round.config) ~seed ~id send =
  let t = { table = None } in
  let handle src = function
    | Wire.Joint { joint } ->
        let drbg = Crypto.Drbg.create (Printf.sprintf "psc-dc|%d|%d" seed id) in
        t.table <-
          Some
            (Table.create ~table_size:cfg.table_size ~key:(Round.round_key ~seed) ~joint
               ~drbg ())
    | Wire.Table_request -> send Bus.Party.Ts (Wire.Table_submit (Table.slots (dc_table t)))
    | m -> unexpected "dc" src m
  in
  { state = t; handle }

(* ------------------------------------------------------------------ *)
(* Tally server *)

type stage =
  | Collect  (** keys, tables and noise arrive *)
  | Chain of { cp : int; vector : Crypto.Elgamal.ciphertext array }
      (** [vector] is the chain input being verified against *)
  | Decrypt of { vector : Crypto.Elgamal.ciphertext array }
  | Done of Round.result

type ts = {
  cfg : Round.config;
  num_dcs : int;
  send : send;
  mutable stage : stage;
  mutable keys : (int * (Crypto.Elgamal.pub * Crypto.Sigma.schnorr_proof)) list;
  mutable joint : (Crypto.Elgamal.pub * Crypto.Group.precomp) option;
  mutable pubs : (int * (Crypto.Elgamal.pub * Crypto.Group.precomp)) list;
      (* fixed-base table per CP public key, for decryption checks *)
  mutable tables : (int * Crypto.Elgamal.ciphertext array) list;
  mutable noise :
    (int
    * (Crypto.Elgamal.ciphertext array
      * (Crypto.Elgamal.ciphertext * Crypto.Bit_proof.t) array option))
    list;
  mutable shares :
    (int * (Crypto.Group.elt array * Crypto.Sigma.dleq_proof array option)) list;
  mutable culprits : int list;
}

let blame t cp = if not (List.mem cp t.culprits) then t.culprits <- cp :: t.culprits

let joint_exn t =
  match t.joint with
  | Some j -> j
  | None -> invalid_arg "Party.ts: joint key not established"

let to_cps t m =
  for cp = 0 to t.cfg.num_cps - 1 do
    t.send (Bus.Party.Cp cp) m
  done

(* all CP keys are in: verify in id order, send the joint key out *)
let establish_joint t =
  let keys = by_id t.keys in
  List.iter
    (fun (id, (pub, proof)) ->
      let ok = Cp.verify_key_proof ~id ~pub proof in
      Obs.Ledger.proof ~kind:"psc-key" ~party:id ~ok ~batch:1;
      if not ok then
        (* torlint: allow hygiene/failwith-in-lib — setup abort on a bad
           CP key proof is the protocol-mandated response *)
        failwith "Party.ts: CP key proof rejected")
    keys;
  let joint = Crypto.Elgamal.joint_pub (List.map (fun (_, (pub, _)) -> pub) keys) in
  t.joint <- Some (joint, Crypto.Group.precomp joint);
  t.pubs <- List.map (fun (id, (pub, _)) -> (id, (pub, Crypto.Group.precomp pub))) keys;
  for dc = 0 to t.num_dcs - 1 do
    t.send (Bus.Party.Dc dc) (Wire.Joint { joint })
  done;
  to_cps t (Wire.Joint { joint })

let shuffle_next t ~cp vector =
  t.stage <- Chain { cp; vector };
  t.send (Bus.Party.Cp cp) (Wire.Shuffle_request { vector; rounds = t.cfg.proof_rounds })

(* every CP's noise is in: combine the tables, check the bit proofs in
   id order, start the shuffle chain at CP 0 *)
let start_chain t =
  let joint, tab = joint_exn t in
  let combined =
    Obs.Ledger.phase "psc.combine" ~attrs:[ jobs_attr () ] (fun () ->
        Table.combine (List.map snd (by_id t.tables)))
  in
  let vector =
    Obs.Ledger.phase "psc.noise"
      ~attrs:[ ("flips_per_cp", string_of_int t.cfg.noise_flips_per_cp); jobs_attr () ]
    @@ fun () ->
    let per_cp =
      List.map
        (fun (cp, (slots, proven)) ->
          if t.cfg.verify then begin
            (* one folded check per CP message rather than one per slot *)
            let ok =
              match proven with
              | Some proven -> (
                  match Crypto.Bit_proof.verify_batch ~pk_tab:tab ~pk:joint proven with
                  | Crypto.Batch_verify.Accepted -> true
                  | Crypto.Batch_verify.Rejected _ -> false)
              | None -> false
            in
            Obs.Ledger.proof ~kind:"psc-noise-bit" ~party:cp ~ok ~batch:(Array.length slots);
            if not ok then blame t cp
          end;
          slots)
        (by_id t.noise)
    in
    Array.concat (combined :: per_cp)
  in
  (* folded into [vector]; dropping them keeps the live heap small *)
  t.tables <- [];
  t.noise <- [];
  shuffle_next t ~cp:0 vector

let check_shuffle t ~cp ~input ~output proof =
  if t.cfg.verify then
    match proof with
    | Some proof ->
        let joint, tab = joint_exn t in
        let ok = Crypto.Shuffle.verify ~tab joint ~input ~output proof in
        Obs.Ledger.proof ~kind:"psc-shuffle" ~party:cp ~ok ~batch:(Array.length input);
        if not ok then blame t cp
    | None when t.cfg.proof_rounds <> None ->
        (* asked for a proof, produced none: fails outright *)
        Obs.Ledger.proof ~kind:"psc-shuffle" ~party:cp ~ok:false ~batch:0;
        blame t cp
    | None -> ()

(* every decryption share is in: check in id order, combine, estimate *)
let finish t vector =
  let shares = by_id t.shares in
  t.shares <- [];
  let raw_nonzero =
    Obs.Ledger.phase "psc.decrypt" ~attrs:[ jobs_attr () ] @@ fun () ->
    if t.cfg.verify then
      List.iter
        (fun (cp, (share_vec, proofs)) ->
          let pub, pub_tab = List.assoc cp t.pubs in
          let ok =
            Cp.verify_decryption ~pub_tab ~pub ~vector
              { Cp.cp_id = cp; shares = share_vec; proofs }
          in
          Obs.Ledger.proof ~kind:"psc-decrypt" ~party:cp ~ok ~batch:(Array.length vector);
          if not ok then blame t cp)
        shares;
    let share_arr = Array.of_list (List.map (fun (_, (s, _)) -> s) shares) in
    Array.fold_left
      (fun n plain -> if Crypto.Elgamal.is_identity_plaintext plain then n else n + 1)
      0
      (Crypto.Elgamal.combine_partial_all vector ~parties:(Array.length share_arr)
         ~share:(fun p i -> share_arr.(p).(i)))
  in
  let total_flips = t.cfg.noise_flips_per_cp * t.cfg.num_cps in
  let estimate, ci =
    Obs.Ledger.phase "psc.estimate" @@ fun () ->
    Round.estimate_of ~table_size:t.cfg.table_size ~confidence:t.cfg.confidence ~raw_nonzero
      ~total_flips
  in
  Obs.Metrics.set "psc_raw_nonzero_slots" (float_of_int raw_nonzero);
  Obs.Metrics.set "psc_noise_flips" (float_of_int total_flips);
  t.stage <-
    Done
      {
        Round.raw_nonzero;
        total_flips;
        estimate;
        ci;
        proofs_ok = t.culprits = [];
        culprits = List.sort Int.compare t.culprits;
      }

let ts_handle t src m =
  let all l = List.length l = t.cfg.num_cps in
  match (src, m, t.stage) with
  | Bus.Party.Cp cp, Wire.Cp_key { pub; proof }, Collect ->
      t.keys <- (cp, (pub, proof)) :: t.keys;
      if all t.keys then establish_joint t
  | Bus.Party.Dc dc, Wire.Table_submit slots, Collect -> t.tables <- (dc, slots) :: t.tables
  | Bus.Party.Cp cp, Wire.Noise_slots proven, Collect ->
      t.noise <- (cp, (Array.map fst proven, Some proven)) :: t.noise;
      if all t.noise then start_chain t
  | Bus.Party.Cp cp, Wire.Noise_plain slots, Collect ->
      t.noise <- (cp, (slots, None)) :: t.noise;
      if all t.noise then start_chain t
  | Bus.Party.Cp cp, Wire.Shuffled { output; proof }, Chain { cp = expect; vector }
    when cp = expect ->
      check_shuffle t ~cp ~input:vector ~output proof;
      t.send src (Wire.Rerand_request output)
  | Bus.Party.Cp cp, Wire.Rerandomized vector, Chain { cp = expect; _ } when cp = expect ->
      if cp + 1 < t.cfg.num_cps then shuffle_next t ~cp:(cp + 1) vector
      else begin
        t.stage <- Decrypt { vector };
        to_cps t (Wire.Decrypt_request vector)
      end
  | Bus.Party.Cp cp, Wire.Decrypt_share { shares; proofs }, Decrypt { vector } ->
      t.shares <- (cp, (shares, proofs)) :: t.shares;
      if all t.shares then finish t vector
  | _ -> unexpected "ts" src m

let ts cfg ~num_dcs send =
  let t =
    {
      cfg;
      num_dcs;
      send;
      stage = Collect;
      keys = [];
      joint = None;
      pubs = [];
      tables = [];
      noise = [];
      shares = [];
      culprits = [];
    }
  in
  { state = t; handle = ts_handle t }

let ts_request_tables t ~dcs =
  List.iter (fun dc -> t.send (Bus.Party.Dc dc) Wire.Table_request) dcs

let ts_start_aggregate t =
  if t.tables = [] then invalid_arg "Party.ts_start_aggregate: no tables";
  Option.iter
    (fun p ->
      Obs.Ledger.grant ~system:"psc" ~epsilon:p.Dp.Mechanism.epsilon ~delta:p.Dp.Mechanism.delta;
      Obs.Ledger.draw ~system:"psc" ~counter:"cardinality" ~mechanism:"binomial"
        ~epsilon:p.Dp.Mechanism.epsilon ~delta:p.Dp.Mechanism.delta)
    t.cfg.dp;
  to_cps t (Wire.Noise_request { flips = t.cfg.noise_flips_per_cp })

let ts_result t = match t.stage with Done r -> Some r | _ -> None
