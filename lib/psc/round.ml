type tamper = { tampered_cp : int; action : [ `Shuffle_swap | `Noise_nonbit ] }

type config = {
  table_size : int;
  num_cps : int;
  noise_flips_per_cp : int;
  proof_rounds : int option;
  verify : bool;
  confidence : float;
  tamper : tamper option;
      (* fault injection for tests: make one CP misbehave and check the
         proofs identify it *)
  dp : Dp.Mechanism.params option;
      (* the (eps, delta) the noise was calibrated for; recorded as a
         budget grant + draw in the run ledger when present *)
}

let config ?(num_cps = 3) ?(noise_flips_per_cp = 64) ?(proof_rounds = Some 8) ?(verify = true)
    ?(confidence = 0.95) ?tamper ?dp ~table_size () =
  if table_size <= 0 then invalid_arg "Protocol.config: table_size must be positive";
  if num_cps < 1 then invalid_arg "Protocol.config: need at least one CP";
  if noise_flips_per_cp < 0 then invalid_arg "Protocol.config: negative flips";
  (* the wire writes [None] as zero rounds *)
  if Option.fold ~none:false ~some:(fun r -> r < 1) proof_rounds then
    invalid_arg "Protocol.config: proof rounds must be positive";
  { table_size; num_cps; noise_flips_per_cp; proof_rounds; verify; confidence; tamper; dp }

let flips_for_params params ~sensitivity ~num_cps =
  let total = Dp.Mechanism.binomial_n_for params ~sensitivity in
  (total + num_cps - 1) / num_cps

type result = {
  raw_nonzero : int;
  total_flips : int;
  estimate : float;
  ci : Stats.Ci.t;
  proofs_ok : bool;
  culprits : int list;
}

(* Subtract the binomial noise mean, invert the occupancy bias, attach
   the exact interval. *)
let estimate_of ~table_size ~confidence ~raw_nonzero ~total_flips =
  let occupied = float_of_int raw_nonzero -. (float_of_int total_flips /. 2.0) in
  let estimate =
    Stats.Ci.invert_occupancy ~table_size
      (max 0.0 (min occupied (float_of_int table_size -. 1.0)))
  in
  let ci =
    Stats.Ci.binomial_exact ~confidence ~observed:raw_nonzero ~flips:total_flips
      ~table_size ()
  in
  (estimate, ci)

let round_key ~seed = Crypto.Sha256.digest (Printf.sprintf "psc-round-key|%d" seed)
