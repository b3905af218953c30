type schnorr_proof = { commitment : Group.elt; response : Group.exp }

let schnorr_challenge ~public ~commitment ~context =
  let t = Group.transcript "schnorr|" in
  Sha256.update t context;
  Sha256.update t "|";
  Group.absorb_elt t public;
  Group.absorb_elt t commitment;
  Group.challenge t

let schnorr_prove drbg ~secret ~context =
  let public = Group.pow_g secret in
  let k = Group.random_exp drbg in
  let commitment = Group.pow_g k in
  let c = schnorr_challenge ~public ~commitment ~context in
  let response = Group.exp_add k (Group.exp_mul c secret) in
  { commitment; response }

let schnorr_verify ~public ~context { commitment; response } =
  let c = schnorr_challenge ~public ~commitment ~context in
  Group.elt_to_int (Group.pow_g response)
  = Group.elt_to_int (Group.mul commitment (Group.pow public c))

type dleq_proof = { a1 : Group.elt; a2 : Group.elt; z : Group.exp }

let dleq_challenge ~public1 ~base2 ~public2 ~a1 ~a2 ~context =
  let t = Group.transcript "dleq|" in
  Sha256.update t context;
  Sha256.update t "|";
  Group.absorb_elt t public1;
  Group.absorb_elt t base2;
  Group.absorb_elt t public2;
  Group.absorb_elt t a1;
  Group.absorb_elt t a2;
  Group.challenge t

let dleq_prove_with ?public2 ~k ~secret ~base2 ~context () =
  let public1 = Group.pow_g secret in
  (* callers that already computed base2^secret (a decryption share)
     pass it in and skip the recomputation *)
  let public2 = match public2 with Some v -> v | None -> Group.pow base2 secret in
  let a1 = Group.pow_g k and a2 = Group.pow base2 k in
  let c = dleq_challenge ~public1 ~base2 ~public2 ~a1 ~a2 ~context in
  let z = Group.exp_add k (Group.exp_mul c secret) in
  { a1; a2; z }

let dleq_prove drbg ~secret ~base2 ~context =
  dleq_prove_with ~k:(Group.random_exp drbg) ~secret ~base2 ~context ()

let dleq_verify ?public1_tab ~public1 ~base2 ~public2 ~context { a1; a2; z } =
  let c = dleq_challenge ~public1 ~base2 ~public2 ~a1 ~a2 ~context in
  Group.elt_to_int (Group.pow_g z)
  = Group.elt_to_int (Group.mul a1 (Group.pow_tab ?tab:public1_tab public1 c))
  && Group.elt_to_int (Group.pow base2 z)
     = Group.elt_to_int (Group.mul a2 (Group.pow public2 c))

(* Batched DLEQ verification (Batch_verify). Per proof i with statement
   (public1, base2_i, public2_i) and challenge c_i, the two equations
     g^{z_i}       = a1_i * public1^{c_i}
     base2_i^{z_i} = a2_i * public2_i^{c_i}
   fold under weight lanes (w1, w2) into
     g^{sum w1 z}  = (prod a1^{w1}) * public1^{sum w1 c}        and
     prod base2^{w2 z} * a2^{-w2} * public2^{-w2 c} = 1.
   public1 is the prover's long-lived key, so its folded term runs on
   the caller's fixed-base table; everything varying goes through
   Group.multi_exp. The weight transcript hashes (c_i, z_i): c_i is
   itself the hash of (context, public1, base2_i, public2_i, a1_i,
   a2_i), so by collision resistance the pair binds the whole message
   without re-hashing the vectors. *)
let dleq_verify_batch ?public1_tab ~public1 ~context ~statements proofs =
  let n = Array.length proofs in
  if Array.length statements <> n then
    invalid_arg "Sigma.dleq_verify_batch: length mismatch";
  if n = 0 then Batch_verify.Accepted
  else begin
    (* per-proof Fiat–Shamir challenges: pure per index, pool-friendly *)
    let cs =
      Parallel.parallel_init n (fun i ->
          let base2, public2 = statements.(i) in
          let { a1; a2; _ } = proofs.(i) in
          dleq_challenge ~public1 ~base2 ~public2 ~a1 ~a2 ~context)
    in
    let transcript = Sha256.init () in
    Group.absorb_elt transcript public1;
    for i = 0 to n - 1 do
      Group.absorb_exp transcript cs.(i);
      Group.absorb_exp transcript proofs.(i).z
    done;
    let ws = Batch_verify.weights ~context:("dleq|" ^ context) ~transcript ~lanes:2 n in
    let w1 = ws.(0) and w2 = ws.(1) in
    let zs = Array.map (fun pr -> pr.z) proofs in
    let eq1 =
      let bases = Array.map (fun pr -> pr.a1) proofs in
      Group.elt_to_int (Group.pow_g (Batch_verify.dot w1 zs))
      = Group.elt_to_int
          (Group.mul
             (Group.multi_exp ~bases ~exps:w1)
             (Group.pow_tab ?tab:public1_tab public1 (Batch_verify.dot w1 cs)))
    in
    let eq2 =
      lazy
        (let bases = Array.make (3 * n) Group.one in
         let exps = Array.make (3 * n) Group.zero_exp in
         for i = 0 to n - 1 do
           let base2, public2 = statements.(i) in
           let pr = proofs.(i) in
           let w = w2.(i) in
           bases.(3 * i) <- base2;
           exps.(3 * i) <- Group.exp_mul w pr.z;
           bases.((3 * i) + 1) <- pr.a2;
           exps.((3 * i) + 1) <- Group.exp_neg w;
           bases.((3 * i) + 2) <- public2;
           exps.((3 * i) + 2) <- Group.exp_neg (Group.exp_mul w cs.(i))
         done;
         Group.elt_to_int (Group.multi_exp ~bases ~exps) = Group.elt_to_int Group.one)
    in
    if eq1 && Lazy.force eq2 then Batch_verify.Accepted
    else
      (* single-proof fallback: name exactly which proofs fail *)
      Batch_verify.outcome_of_singles
        (Parallel.parallel_init n (fun i ->
             let base2, public2 = statements.(i) in
             dleq_verify ?public1_tab ~public1 ~base2 ~public2 ~context proofs.(i)))
  end
