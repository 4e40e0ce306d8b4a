module Vec = Numeric.Vec
module Sparse = Numeric.Sparse
module Multivec = Numeric.Multivec

(* Matches the Numeric.Solver iterative-solver default; used as the cache
   key when the caller does not pass an explicit tolerance. *)
let default_tol = 1e-12

let is_irreducible ?analysis m =
  Analysis.is_irreducible (Analysis.for_chain analysis m)

(* Stationary vector of an irreducible chain from its transposed rate
   matrix and exit rates. Gauss-Seidel on the normalized singular system
   converges fast on most chains but is not guaranteed to (the iteration
   matrix of a singular splitting can have modulus-1 eigenvalues); when it
   gives up we fall back to power iteration on the uniformized DTMC
   P = I + (R - diag exit) / lambda, built from the same two inputs, which
   is aperiodic by construction (the uniformization rate strictly exceeds
   the maximal exit rate, so every state keeps a self-loop) and therefore
   always converges. *)
let stationary ?tol ?max_iter ~exit rt =
  Obs.Trace.with_span "steady_state.stationary" @@ fun span ->
  if Obs.Trace.recording span then
    Obs.Trace.add_attr span "states" (Obs.Int (Sparse.rows rt));
  match Numeric.Solver.stationary ?tol ?max_iter ~exit rt with
  | pi, _ -> pi
  | exception Numeric.Solver.Did_not_converge _ ->
      Obs.Trace.add_attr span "fallback" (Obs.Str "power_iteration");
      let n = Sparse.rows rt in
      let lambda = Float.max 1e-10 (Vec.max_entry exit *. 1.02) in
      let b = Sparse.Builder.create ~rows:n ~cols:n in
      Sparse.iteri rt (fun j i x -> Sparse.Builder.add b i j (x /. lambda));
      Array.iteri (fun i e -> Sparse.Builder.add b i i (1. -. (e /. lambda))) exit;
      let pi0 = Vec.create n (1. /. float_of_int n) in
      let pi, _ = Numeric.Solver.power_iteration ?tol (Sparse.Builder.to_csr b) pi0 in
      Vec.normalize_l1 pi;
      pi

let solve_chain ?tol m =
  stationary ?tol ~exit:(Chain.exit_rates m) (Sparse.transpose (Chain.rates m))

let solve_irreducible ?tol ?analysis m =
  if not (is_irreducible ?analysis m) then
    invalid_arg "Steady_state.solve_irreducible: chain is reducible";
  solve_chain ?tol m

(* Local steady state of one recurrent class, embedded back into the full
   state space scaled by [weight]. Local index [i] is [members.(i)], and
   [local.(s)] is that position for every member [s]. The local R^T comes
   straight out of a counting sort over the members' rows (visited in
   local order, so each output row's columns ascend); a recurrent class
   has no edge leaving it, so its exit rates are the chain's. *)
let add_local_solution ?tol m ~in_class ~local c members weight result =
  match members with
  | [||] -> ()
  | [| s |] -> result.(s) <- result.(s) +. weight
  | _ ->
      let k = Array.length members in
      let rates = Chain.rates m and exits = Chain.exit_rates m in
      let target j =
        (* a BSCC has no outgoing edges; defensive *)
        if in_class.(j) <> c then
          invalid_arg "Steady_state: edge leaving a recurrent class";
        local.(j)
      in
      let fill = Array.make (k + 1) 0 in
      Array.iter
        (fun s ->
          Sparse.iter_row rates s (fun j r ->
              if r <> 0. then
                let jj = target j + 1 in
                fill.(jj) <- fill.(jj) + 1))
        members;
      for i = 1 to k do
        fill.(i) <- fill.(i) + fill.(i - 1)
      done;
      let open Bigarray in
      let row_ptr = Array1.create int32 c_layout (k + 1) in
      Array.iteri (fun i p -> row_ptr.{i} <- Int32.of_int p) fill;
      let col_idx = Array1.create int32 c_layout fill.(k) in
      let values = Array1.create float64 c_layout fill.(k) in
      Array.iteri
        (fun i s ->
          Sparse.iter_row rates s (fun j r ->
              if r <> 0. then begin
                let jj = target j in
                let p = fill.(jj) in
                col_idx.{p} <- Int32.of_int i;
                values.{p} <- r;
                fill.(jj) <- p + 1
              end))
        members;
      let rt = Sparse.of_csr ~rows:k ~cols:k ~row_ptr ~col_idx ~values in
      let pi = stationary ?tol ~exit:(Array.map (fun s -> exits.(s)) members) rt in
      Array.iteri (fun i s -> result.(s) <- result.(s) +. (weight *. pi.(i))) members

(* weights.(c) = P(eventually enter class c) from the initial
   distribution. Initial mass already sitting in a class counts directly;
   mass on transient states is pushed through ONE multi-RHS Gauss–Seidel
   solve of (I - A) X = B over the transient states — A the embedded
   matrix restricted to them, column c of B the one-step probability into
   class c — instead of one scalar reachability solve per class. The
   system is non-singular (every transient state eventually leaves the
   transient set) and the blocked sweep decodes the matrix once for all
   classes, in SCC topological order. *)
let bscc_weights ?tol a m bsccs in_bscc =
  let n = Chain.states m in
  let nb = Array.length bsccs in
  let init = Chain.initial m in
  let weights = Array.make nb 0. in
  let transient_mass = ref 0. in
  Array.iteri
    (fun s p ->
      if p <> 0. then
        if in_bscc.(s) >= 0 then weights.(in_bscc.(s)) <- weights.(in_bscc.(s)) +. p
        else transient_mass := !transient_mass +. p)
    init;
  let index = Array.make n (-1) in
  let count = ref 0 in
  for s = 0 to n - 1 do
    if in_bscc.(s) < 0 then begin
      index.(s) <- !count;
      incr count
    end
  done;
  let nt = !count in
  if nt > 0 && !transient_mass > 0. then begin
    let emb = Analysis.embedded a in
    let bld = Sparse.Builder.create ~rows:nt ~cols:nt in
    let rhs = Multivec.create ~dim:nt ~width:nb in
    let states = Array.make nt 0 in
    for s = 0 to n - 1 do
      if in_bscc.(s) < 0 then begin
        states.(index.(s)) <- s;
        Sparse.Builder.add bld index.(s) index.(s) 1.;
        Sparse.iter_row emb s (fun j p ->
            let c = in_bscc.(j) in
            if c >= 0 then
              Multivec.set rhs index.(s) c (Multivec.get rhs index.(s) c +. p)
            else Sparse.Builder.add bld index.(s) index.(j) (-.p))
      end
    done;
    let order = Analysis.scc_solve_order a states in
    let tol = Option.value tol ~default:1e-13 in
    let x, _ =
      Numeric.Solver.solve_gauss_seidel_multi ~tol ~order
        (Sparse.Builder.to_csr bld) rhs
    in
    Array.iteri
      (fun s p ->
        if p <> 0. && in_bscc.(s) < 0 then
          for c = 0 to nb - 1 do
            weights.(c) <- weights.(c) +. (p *. Multivec.get x index.(s) c)
          done)
      init
  end;
  weights

let solve_fresh ?tol a m =
  let n = Chain.states m in
  if Analysis.is_irreducible a then solve_chain ?tol m
  else begin
    let bsccs = Analysis.bottom_sccs a in
    let result = Vec.zeros n in
    let in_bscc = Array.make n (-1) and local = Array.make n (-1) in
    let bsccs =
      Array.mapi
        (fun c members ->
          let members = Array.of_list members in
          Array.iteri
            (fun i s ->
              in_bscc.(s) <- c;
              local.(s) <- i)
            members;
          members)
        bsccs
    in
    let weights = bscc_weights ?tol a m bsccs in_bscc in
    Array.iteri
      (fun c members ->
        if weights.(c) > 0. then
          add_local_solution ?tol m ~in_class:in_bscc ~local c members weights.(c)
            result)
      bsccs;
    result
  end

let solve ?tol ?analysis m =
  match analysis with
  | Some a when Analysis.wraps a m ->
      Analysis.cached_steady a
        ~tol:(Option.value tol ~default:default_tol)
        (fun () -> solve_fresh ?tol a m)
  | Some _ | None -> solve_fresh ?tol (Analysis.create m) m

let long_run_probabilities ?tol ?(lump = false) ?analysis m ~preds =
  let pi, preds =
    if lump then begin
      (* stationary block masses of the quotient equal the summed original
         masses (ordinary lumpability), so every pred-mass is preserved;
         one quotient respects all the predicates at once *)
      let a = Analysis.for_chain analysis m in
      let quot =
        Analysis.quotient a
          ~respect:(List.map (fun p -> Analysis.Pred p) preds)
      in
      let qa = quot.Analysis.q in
      ( solve ?tol ~analysis:qa (Analysis.chain qa),
        List.map (Analysis.block_pred quot) preds )
    end
    else (solve ?tol ?analysis m, preds)
  in
  List.map
    (fun pred ->
      let acc = ref 0. in
      Array.iteri (fun s p -> if pred s then acc := !acc +. p) pi;
      !acc)
    preds

let long_run_probability ?tol ?lump ?analysis m ~pred =
  match long_run_probabilities ?tol ?lump ?analysis m ~preds:[ pred ] with
  | [ x ] -> x
  | _ -> assert false
