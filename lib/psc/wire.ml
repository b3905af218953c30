module Codec = Bus.Codec

type msg =
  | Cp_key of { pub : Crypto.Elgamal.pub; proof : Crypto.Sigma.schnorr_proof }
  | Joint of { joint : Crypto.Elgamal.pub }
  | Table_request
  | Table_submit of Crypto.Elgamal.ciphertext array
  | Noise_request of { flips : int }
  | Noise_slots of (Crypto.Elgamal.ciphertext * Crypto.Bit_proof.t) array
  | Noise_plain of Crypto.Elgamal.ciphertext array
  | Shuffle_request of { vector : Crypto.Elgamal.ciphertext array; rounds : int option }
  | Shuffled of {
      output : Crypto.Elgamal.ciphertext array;
      proof : Crypto.Shuffle.proof option;
    }
  | Rerand_request of Crypto.Elgamal.ciphertext array
  | Rerandomized of Crypto.Elgamal.ciphertext array
  | Decrypt_request of Crypto.Elgamal.ciphertext array
  | Decrypt_share of {
      shares : Crypto.Group.elt array;
      proofs : Crypto.Sigma.dleq_proof array option;
    }

let kind = function
  | Cp_key _ -> "psc.cp_key"
  | Joint _ -> "psc.joint"
  | Table_request -> "psc.table_req"
  | Table_submit _ -> "psc.table"
  | Noise_request _ -> "psc.noise_req"
  | Noise_slots _ -> "psc.noise"
  | Noise_plain _ -> "psc.noise_plain"
  | Shuffle_request _ -> "psc.shuffle_req"
  | Shuffled _ -> "psc.shuffled"
  | Rerand_request _ -> "psc.rerand_req"
  | Rerandomized _ -> "psc.rerand"
  | Decrypt_request _ -> "psc.decrypt_req"
  | Decrypt_share _ -> "psc.decrypt"

(* group values on the wire: plain varints of their canonical ints,
   with membership re-checked on the way back in *)

let max_vec = 1 lsl 22

let read_elt r =
  match Crypto.Group.elt_of_int (Codec.R.varint r) with
  | e -> e
  | exception Invalid_argument _ -> Codec.R.fail "non-member group element"

let write_elt w e = Codec.W.varint w (Crypto.Group.elt_to_int e)

let write_cts w cts =
  Codec.W.varint w (Array.length cts);
  Array.iter
    (fun ct ->
      write_elt w ct.Crypto.Elgamal.c1;
      write_elt w ct.Crypto.Elgamal.c2)
    cts

let read_cts r =
  let n = Codec.R.varint r in
  if n > max_vec then Codec.R.fail "ciphertext vector too long";
  let cts = ref [] in
  for _ = 1 to n do
    let c1 = read_elt r in
    let c2 = read_elt r in
    cts := { Crypto.Elgamal.c1; c2 } :: !cts
  done;
  Array.of_list (List.rev !cts)

let write_ints w a =
  Codec.W.varint w (Array.length a);
  Array.iter (Codec.W.varint w) a

let read_ints ~max r =
  let n = Codec.R.varint r in
  if n > max then Codec.R.fail "int vector too long";
  let a = Array.make n 0 in
  for i = 0 to n - 1 do
    a.(i) <- Codec.R.varint r
  done;
  a

let encode m =
  let w = Codec.W.create () in
  (match m with
  | Cp_key { pub; proof } ->
      write_elt w pub;
      write_elt w proof.Crypto.Sigma.commitment;
      Codec.W.varint w (Crypto.Group.exp_to_int proof.Crypto.Sigma.response)
  | Joint { joint } -> write_elt w joint
  | Table_request -> ()
  | Table_submit cts | Noise_plain cts | Rerand_request cts | Rerandomized cts
  | Decrypt_request cts ->
      write_cts w cts
  | Noise_request { flips } -> Codec.W.varint w flips
  | Noise_slots slots ->
      Codec.W.varint w (Array.length slots);
      Array.iter
        (fun (ct, proof) ->
          write_elt w ct.Crypto.Elgamal.c1;
          write_elt w ct.Crypto.Elgamal.c2;
          Array.iter (Codec.W.varint w) (Crypto.Bit_proof.to_ints proof))
        slots
  | Shuffle_request { vector; rounds } ->
      (* zero rounds is no proof: [Round.config] rejects [Some 0] *)
      Codec.W.varint w (Option.value rounds ~default:0);
      write_cts w vector
  | Shuffled { output; proof } ->
      write_cts w output;
      (match proof with
      | None -> Codec.W.u8 w 0
      | Some p ->
          Codec.W.u8 w 1;
          write_ints w (Crypto.Shuffle.proof_to_ints p))
  | Decrypt_share { shares; proofs } ->
      Codec.W.varint w (Array.length shares);
      Array.iter (write_elt w) shares;
      (match proofs with
      | None -> Codec.W.u8 w 0
      | Some ps ->
          Codec.W.u8 w 1;
          Codec.W.varint w (Array.length ps);
          Array.iter
            (fun p ->
              write_elt w p.Crypto.Sigma.a1;
              write_elt w p.Crypto.Sigma.a2;
              Codec.W.varint w (Crypto.Group.exp_to_int p.Crypto.Sigma.z))
            ps));
  Codec.W.contents w

let read_bit_slots r =
  let n = Codec.R.varint r in
  if n > max_vec then Codec.R.fail "noise vector too long";
  let slots = ref [] in
  for _ = 1 to n do
    let c1 = read_elt r in
    let c2 = read_elt r in
    let ints = Array.make 8 0 in
    for i = 0 to 7 do
      ints.(i) <- Codec.R.varint r
    done;
    match Crypto.Bit_proof.of_ints ints with
    | Some proof -> slots := ({ Crypto.Elgamal.c1; c2 }, proof) :: !slots
    | None -> Codec.R.fail "malformed bit proof"
  done;
  Array.of_list (List.rev !slots)

let decode ~kind body =
  match kind with
  | "psc.cp_key" ->
      Codec.decode body (fun r ->
          let pub = read_elt r in
          let commitment = read_elt r in
          let response = Crypto.Group.exp_of_int (Codec.R.varint r) in
          Cp_key { pub; proof = { Crypto.Sigma.commitment; response } })
  | "psc.joint" -> Codec.decode body (fun r -> Joint { joint = read_elt r })
  | "psc.table_req" -> Codec.decode body (fun _ -> Table_request)
  | "psc.table" -> Codec.decode body (fun r -> Table_submit (read_cts r))
  | "psc.noise_req" ->
      Codec.decode body (fun r -> Noise_request { flips = Codec.R.varint r })
  | "psc.noise" -> Codec.decode body (fun r -> Noise_slots (read_bit_slots r))
  | "psc.noise_plain" -> Codec.decode body (fun r -> Noise_plain (read_cts r))
  | "psc.shuffle_req" ->
      Codec.decode body (fun r ->
          let rounds = match Codec.R.varint r with 0 -> None | n -> Some n in
          Shuffle_request { vector = read_cts r; rounds })
  | "psc.shuffled" ->
      Codec.decode body (fun r ->
          let output = read_cts r in
          let proof =
            match Codec.R.u8 r with
            | 0 -> None
            | 1 -> (
                let ints = read_ints ~max:(1 lsl 26) r in
                match Crypto.Shuffle.proof_of_ints ints with
                | Some p -> Some p
                | None -> Codec.R.fail "malformed shuffle proof")
            | _ -> Codec.R.fail "bad proof tag"
          in
          Shuffled { output; proof })
  | "psc.rerand_req" -> Codec.decode body (fun r -> Rerand_request (read_cts r))
  | "psc.rerand" -> Codec.decode body (fun r -> Rerandomized (read_cts r))
  | "psc.decrypt_req" -> Codec.decode body (fun r -> Decrypt_request (read_cts r))
  | "psc.decrypt" ->
      Codec.decode body (fun r ->
          let n = Codec.R.varint r in
          if n > max_vec then Codec.R.fail "share vector too long";
          let shares = ref [] in
          for _ = 1 to n do
            shares := read_elt r :: !shares
          done;
          let shares = Array.of_list (List.rev !shares) in
          let proofs =
            match Codec.R.u8 r with
            | 0 -> None
            | 1 ->
                let np = Codec.R.varint r in
                if np > max_vec then Codec.R.fail "proof vector too long";
                let ps = ref [] in
                for _ = 1 to np do
                  let a1 = read_elt r in
                  let a2 = read_elt r in
                  let z = Crypto.Group.exp_of_int (Codec.R.varint r) in
                  ps := { Crypto.Sigma.a1; a2; z } :: !ps
                done;
                Some (Array.of_list (List.rev !ps))
            | _ -> Codec.R.fail "bad proof tag"
          in
          Decrypt_share { shares; proofs })
  | k -> Error (Codec.Invalid (Printf.sprintf "unknown psc kind %S" k))

let post sched ~epoch ~src ~dst m =
  Bus.Sched.post sched ~epoch ~src ~dst ~kind:(kind m) ~body:(encode m)

let encode_result (res : Round.result) =
  let w = Codec.W.create () in
  Codec.W.varint w res.Round.raw_nonzero;
  Codec.W.varint w res.Round.total_flips;
  Codec.W.f64 w res.Round.estimate;
  Codec.W.f64 w res.Round.ci.Stats.Ci.lo;
  Codec.W.f64 w res.Round.ci.Stats.Ci.hi;
  Codec.W.u8 w (if res.Round.proofs_ok then 1 else 0);
  Codec.W.varint w (List.length res.Round.culprits);
  List.iter (Codec.W.varint w) res.Round.culprits;
  Codec.W.contents w

let decode_result s =
  Codec.decode s (fun r ->
      let raw_nonzero = Codec.R.varint r in
      let total_flips = Codec.R.varint r in
      let estimate = Codec.R.f64 r in
      let lo = Codec.R.f64 r in
      let hi = Codec.R.f64 r in
      let proofs_ok =
        match Codec.R.u8 r with
        | 0 -> false
        | 1 -> true
        | _ -> Codec.R.fail "bad proofs_ok"
      in
      let n = Codec.R.varint r in
      if n > 4096 then Codec.R.fail "too many culprits";
      let culprits = ref [] in
      for _ = 1 to n do
        culprits := Codec.R.varint r :: !culprits
      done;
      {
        Round.raw_nonzero;
        total_flips;
        estimate;
        ci = Stats.Ci.make lo hi;
        proofs_ok;
        culprits = List.rev !culprits;
      })
