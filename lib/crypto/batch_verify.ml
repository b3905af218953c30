(* Random-linear-combination (RLC) batch verification substrate.

   N verification equations of the form L_i = R_i over the order-q
   subgroup are folded into one check prod L_i^{w_i} = prod R_i^{w_i}
   with weights w_i drawn uniformly from [1, q). If any single equation
   fails, the folded equation holds with probability at most 1/q over
   the weights (the defect prod (L_i/R_i)^{w_i} is a nontrivial
   character of the weight vector), so a batch accept is wrong with
   probability ~1/q per folded system — "overwhelming" at this group's
   simulation scale in the same sense the 31-bit group itself is; see
   DESIGN.md §3c.

   The weights come from a dedicated verifier DRBG seeded by a
   domain-separated hash of the full statement+proof transcript. That
   gives three properties the soundness argument needs:
   - the weights are fixed only after the prover's entire message,
     so a cheating prover cannot choose proof elements against them
     (Fiat–Shamir, with the transcript hash as the binding commitment);
   - the verifier stream is isolated: it consumes nothing from any
     party DRBG, so batching cannot perturb the protocol's draw order
     or the deploy-mode byte-identity contract;
   - the same transcript yields the same weights, keeping verification
     deterministic across runs, pool sizes and hosts.

   The per-family batch verifiers live with their proof systems
   (Sigma.dleq_verify_batch, Bit_proof.verify_batch, the per-round
   fold inside Shuffle.verify); this module owns the weight stream and
   the shared outcome vocabulary. Each family keeps its single-proof
   verifier as the fallback: when a folded check fails, the batch
   re-runs the singles so the outcome names exactly which proofs
   failed — that is what `tormeasure audit` and the blame path report. *)

type outcome = Accepted | Rejected of int list

let weights ~context ~transcript ~lanes n =
  if lanes < 0 || n < 0 then invalid_arg "Batch_verify.weights: negative count";
  let drbg =
    Drbg.create ~personalization:("batch-verify|" ^ context) (Sha256.finalize transcript)
  in
  (* one bulk draw for every lane, nonzero by construction *)
  let raw = Drbg.uniform_array drbg (Group.q - 1) (lanes * n) in
  Array.init lanes (fun l ->
      Array.init n (fun i -> Group.exp_of_int (1 + raw.((l * n) + i))))

(* Weighted exponent sum mod q: sum_i ws.(i) * xs.(i). The scalar half
   of every folded equation. *)
let dot ws xs =
  let n = Array.length ws in
  if Array.length xs <> n then invalid_arg "Batch_verify.dot: length mismatch";
  let acc = ref Group.zero_exp in
  for i = 0 to n - 1 do
    acc := Group.exp_add !acc (Group.exp_mul ws.(i) xs.(i))
  done;
  !acc

(* Collect the indices where a single-proof fallback pass failed. *)
let rejected_indices oks =
  let bad = ref [] in
  for i = Array.length oks - 1 downto 0 do
    if not oks.(i) then bad := i :: !bad
  done;
  !bad

let outcome_of_singles oks =
  match rejected_indices oks with [] -> Accepted | bad -> Rejected bad
