(* Tests for the Arcade core: components, repair units, spare management,
   model validation, the direct CTMC semantics, the measure layer, the XML
   format and the PRISM translation. *)

module Component = Core.Component
module Repair = Core.Repair
module Spare = Core.Spare
module Model = Core.Model
module Semantics = Core.Semantics
module Measures = Core.Measures
module Xml_io = Core.Xml_io
module To_prism = Core.To_prism
module Chain = Ctmc.Chain

(* every state of a built chain, decoded *)
let all_states built =
  Array.init (Ctmc.Chain.states built.Semantics.chain) (Semantics.state built)

let check_close ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

(* substring containment without external deps *)
module Astring_like = struct
  let contains haystack needle =
    let nh = String.length haystack and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
    nn = 0 || go 0
end

let comp ?(mttf = 100.) ?(mttr = 2.) name = Component.make ~name ~mttf ~mttr ()

(* a 3-component system: a, b redundant pair; c in series *)
let abc_tree =
  Fault_tree.or_
    [ Fault_tree.and_ [ Fault_tree.basic "a"; Fault_tree.basic "b" ]; Fault_tree.basic "c" ]

let abc_model ?(repair_units = []) ?(spare_units = []) () =
  Model.make ~name:"abc"
    ~components:[ comp "a"; comp "b"; comp ~mttf:200. ~mttr:10. "c" ]
    ~repair_units ~spare_units ~fault_tree:abc_tree ()

let fcfs_unit ?(crews = 1) ?(preemptive = false) () =
  Repair.make ~name:"ru" ~strategy:Repair.Fcfs ~crews ~preemptive
    ~components:[ "a"; "b"; "c" ] ()

(* ------------------------------------------------------------------ *)
(* Component / Repair / Spare / Model validation *)

let test_component_validation () =
  Alcotest.check_raises "bad mttf" (Invalid_argument "Component.make: MTTF must be positive")
    (fun () -> ignore (Component.make ~name:"x" ~mttf:0. ~mttr:1. ()));
  let c = comp "x" in
  check_close "failure rate" 0.01 (Component.failure_rate c);
  check_close "repair rate" 0.5 (Component.repair_rate c)

let test_repair_validation () =
  Alcotest.check_raises "no components"
    (Invalid_argument "Repair.make: no components") (fun () ->
      ignore (Repair.make ~name:"r" ~strategy:Repair.Fcfs ~components:[] ()));
  Alcotest.check_raises "bad priority list"
    (Invalid_argument "Repair.make: priority list must cover exactly the unit's components")
    (fun () ->
      ignore
        (Repair.make ~name:"r" ~strategy:(Repair.Priority [ "a" ])
           ~components:[ "a"; "b" ] ()))

let test_repair_strategy_strings () =
  List.iter
    (fun s ->
      Alcotest.(check bool) "roundtrip" true
        (Repair.strategy_of_string (Repair.strategy_to_string s) = s))
    [ Repair.Dedicated; Repair.Fcfs; Repair.Frf; Repair.Fff ]

let test_repair_ranks () =
  let ru =
    Repair.make ~name:"r" ~strategy:Repair.Frf ~components:[ "a"; "b"; "c" ] ()
  in
  let lookup = function
    | "a" -> comp ~mttr:1. "a"
    | "b" -> comp ~mttr:5. "b"
    | "c" -> comp ~mttr:1. "c"
    | _ -> assert false
  in
  Alcotest.(check int) "fast repair first" 0 (Repair.priority_rank ru lookup "a");
  Alcotest.(check int) "ties share rank" 0 (Repair.priority_rank ru lookup "c");
  Alcotest.(check int) "slow repair later" 1 (Repair.priority_rank ru lookup "b")

let test_spare_activation () =
  let smu =
    Spare.make ~name:"s" ~mode:Spare.Cold ~primaries:[ "p1"; "p2" ] ~spares:[ "s1" ] ()
  in
  let active up = Spare.active_set smu ~up in
  Alcotest.(check (list (pair string bool))) "all up: spare dormant"
    [ ("p1", true); ("p2", true); ("s1", false) ]
    (active (fun _ -> true));
  Alcotest.(check (list (pair string bool))) "p1 down: spare active"
    [ ("p1", false); ("p2", true); ("s1", true) ]
    (active (fun c -> c <> "p1"))

let test_model_validation () =
  Alcotest.check_raises "duplicate names"
    (Invalid_argument "Model: duplicate component a") (fun () ->
      ignore
        (Model.make ~name:"m" ~components:[ comp "a"; comp "a" ]
           ~fault_tree:(Fault_tree.basic "a") ()));
  Alcotest.check_raises "unknown in fault tree"
    (Invalid_argument "Model: fault tree references unknown component zz") (fun () ->
      ignore
        (Model.make ~name:"m" ~components:[ comp "a" ]
           ~fault_tree:(Fault_tree.basic "zz") ()));
  Alcotest.check_raises "double repair"
    (Invalid_argument "Model: component a repaired by two units") (fun () ->
      ignore
        (Model.make ~name:"m" ~components:[ comp "a" ]
           ~repair_units:
             [
               Repair.make ~name:"r1" ~strategy:Repair.Fcfs ~components:[ "a" ] ();
               Repair.make ~name:"r2" ~strategy:Repair.Fcfs ~components:[ "a" ] ();
             ]
           ~fault_tree:(Fault_tree.basic "a") ()))

let test_model_service_levels () =
  let model = abc_model () in
  let levels = Model.service_levels model in
  (* service tree: and(or(a,b), c): levels {0, 1/2, 1} *)
  Alcotest.(check int) "3 levels" 3 (List.length levels);
  check_close "middle" 0.5 (List.nth levels 1)

(* ------------------------------------------------------------------ *)
(* Semantics: structure of the generated chains *)

let test_semantics_unrepaired_reliability () =
  (* no repair units: 2^3 = 8 states, absorbing all-failed *)
  let built = Semantics.build (abc_model ()) in
  Alcotest.(check int) "8 states" 8 (Chain.states built.Semantics.chain);
  (* analytic reliability of the series-parallel system *)
  let m = Measures.analyze (abc_model ()) in
  let t = 50. in
  let pa = Float.exp (-.t /. 100.) in
  let pc = Float.exp (-.t /. 200.) in
  ignore pa;
  (* full service requires everything up: e^-(2/100 + 1/200) t *)
  check_close ~eps:1e-9 "full-service reliability"
    (Float.exp (-.t *. ((2. /. 100.) +. (1. /. 200.))))
    (Measures.reliability m ~time:t);
  (* any-service reliability: (1 - (1-pa)^2) * pc *)
  let any_service =
    Ctmc.Reachability.bounded_until_from_init built.Semantics.chain
      ~phi:(fun _ -> true)
      ~psi:(Semantics.down_pred built) ~bound:t
  in
  check_close ~eps:1e-9 "fault-tree reliability"
    (1. -. ((1. -. ((2. *. pa) -. (pa *. pa))) *. 1. +. (1. -. pc) -. (1. -. ((2. *. pa) -. (pa *. pa))) *. (1. -. pc)))
    (1. -. any_service)

let test_semantics_dedicated_product_form () =
  (* dedicated repair = independent components; availability factorizes *)
  let ded =
    Repair.make ~name:"ded" ~strategy:Repair.Dedicated ~components:[ "a"; "b"; "c" ] ()
  in
  let m = Measures.analyze (abc_model ~repair_units:[ ded ] ()) in
  let avail_a = 100. /. 102. and avail_c = 200. /. 210. in
  check_close ~eps:1e-9 "product form" (avail_a *. avail_a *. avail_c)
    (Measures.availability m)

let test_semantics_invariants () =
  (* over the full FCFS state space: free crew => empty queue; queue and
     in_repair are disjoint and exactly cover the failed RU components *)
  let built = Semantics.build (abc_model ~repair_units:[ fcfs_unit ~crews:2 () ] ()) in
  Array.iter
    (fun st ->
      let in_r = st.Semantics.in_repair.(0) in
      let q = st.Semantics.queue.(0) in
      let failed =
        List.filter (fun i -> not st.Semantics.up.(i)) [ 0; 1; 2 ]
      in
      let covered = List.sort compare (in_r @ q) in
      Alcotest.(check (list int)) "partition of failed" failed covered;
      if List.length in_r < 2 then Alcotest.(check (list int)) "free crew => empty queue" [] q;
      List.iter
        (fun i -> Alcotest.(check bool) "in_repair failed" false st.Semantics.up.(i))
        in_r)
    (all_states built)

let test_semantics_single_crew_counts () =
  (* FCFS with 1 crew on 3 distinct components: states = sum over failed
     subsets of (orderings consistent with one in-repair + queue order) *)
  let built = Semantics.build (abc_model ~repair_units:[ fcfs_unit () ] ()) in
  (* up-sets: 1 (all up) + 3 (one failed) + 6 (two failed, ordered) +
     6 (three failed: crew fixed to first, queue ordered) = 16
     ... queue order of remaining 2 -> 3 choices of in-repair * 2 = 6 *)
  Alcotest.(check int) "state count" 16 (Chain.states built.Semantics.chain)

let test_semantics_fcfs_queue_order_preserved () =
  (* start from disaster where all of a,b,c failed in priority order; the
     first repair completion must be the head of the queue *)
  let model = abc_model ~repair_units:[ fcfs_unit () ] () in
  let disaster = Semantics.disaster_state model ~failed:[ "a"; "b"; "c" ] in
  Alcotest.(check (list int)) "one in repair" [ 0 ] disaster.Semantics.in_repair.(0);
  Alcotest.(check (list int)) "two queued in order" [ 1; 2 ] disaster.Semantics.queue.(0)

let test_semantics_frf_dispatch () =
  (* FRF: after the in-repair component completes, the fastest-repair
     waiting component is dispatched, not the FCFS head *)
  let fast = Component.make ~name:"fast" ~mttf:100. ~mttr:1. () in
  let slow = Component.make ~name:"slow" ~mttf:100. ~mttr:50. () in
  let other = Component.make ~name:"other" ~mttf:100. ~mttr:25. () in
  let ru =
    Repair.make ~name:"ru" ~strategy:Repair.Frf ~components:[ "fast"; "slow"; "other" ] ()
  in
  let model =
    Model.make ~name:"m" ~components:[ fast; slow; other ] ~repair_units:[ ru ]
      ~fault_tree:(Fault_tree.basic "slow") ()
  in
  (* disaster ordered by priority: fast(0) in repair, queue [other; slow] *)
  let disaster = Semantics.disaster_state model ~failed:[ "slow"; "other"; "fast" ] in
  let built = Semantics.build ~initial:disaster model in
  Alcotest.(check (list int)) "queue by mttr rank"
    [ built.Semantics.component_index "other"; built.Semantics.component_index "slow" ]
    disaster.Semantics.queue.(0)

let frf_unit ?(crews = 1) ?(preemptive = false) () =
  Repair.make ~name:"ru" ~strategy:Repair.Frf ~crews ~preemptive
    ~components:[ "a"; "b"; "c" ] ()

let test_semantics_preemptive_smaller_space () =
  (* with distinct priorities, preemption drops the in-repair bookkeeping
     (the crew always works on the queue head): strictly fewer states *)
  let np = Semantics.build (abc_model ~repair_units:[ frf_unit () ] ()) in
  let pre =
    Semantics.build (abc_model ~repair_units:[ frf_unit ~preemptive:true () ] ())
  in
  Alcotest.(check bool) "preemptive smaller" true
    (Chain.states pre.Semantics.chain < Chain.states np.Semantics.chain);
  (* for FCFS (a single priority class) the two encodings are isomorphic *)
  let np_fcfs = Semantics.build (abc_model ~repair_units:[ fcfs_unit () ] ()) in
  let pre_fcfs =
    Semantics.build (abc_model ~repair_units:[ fcfs_unit ~preemptive:true () ] ())
  in
  Alcotest.(check int) "fcfs isomorphic"
    (Chain.states np_fcfs.Semantics.chain)
    (Chain.states pre_fcfs.Semantics.chain)

let test_semantics_cold_spare_never_fails_dormant () =
  (* cold spare: with both primaries up, the spare cannot fail, so the
     all-up state has only 2 failure transitions *)
  let model =
    Model.make ~name:"m"
      ~components:[ comp "p1"; comp "p2"; comp "s1" ]
      ~spare_units:
        [ Spare.make ~name:"smu" ~mode:Spare.Cold ~primaries:[ "p1"; "p2" ]
            ~spares:[ "s1" ] () ]
      ~repair_units:
        [ Repair.make ~name:"ru" ~strategy:Repair.Dedicated
            ~components:[ "p1"; "p2"; "s1" ] () ]
      ~fault_tree:(Fault_tree.and_ [ Fault_tree.basic "p1"; Fault_tree.basic "p2";
                                     Fault_tree.basic "s1" ]) ()
  in
  let built = Semantics.build model in
  let init = 0 in
  let exits = Chain.exit_rates built.Semantics.chain in
  (* two failure rates of 0.01 each *)
  check_close ~eps:1e-12 "only primaries fail" 0.02 exits.(init)

let test_semantics_warm_spare_rate () =
  let model =
    Model.make ~name:"m"
      ~components:[ comp "p1"; comp "s1" ]
      ~spare_units:
        [ Spare.make ~name:"smu" ~mode:(Spare.Warm 0.5) ~primaries:[ "p1" ]
            ~spares:[ "s1" ] () ]
      ~fault_tree:(Fault_tree.and_ [ Fault_tree.basic "p1"; Fault_tree.basic "s1" ]) ()
  in
  let built = Semantics.build model in
  check_close ~eps:1e-12 "primary full + spare half rate" 0.015
    (Chain.exit_rates built.Semantics.chain).(0)

let test_semantics_service_levels_per_state () =
  let built = Semantics.build (abc_model ()) in
  let all_up = 0 in
  check_close "full service" 1. (Semantics.service_level built all_up);
  Alcotest.(check bool) "full service predicate" true
    (Semantics.service_at_least built 1. all_up);
  (* find the state with only 'a' failed *)
  let found = ref false in
  Array.iteri
    (fun s st ->
      if (not st.Semantics.up.(0)) && st.Semantics.up.(1) && st.Semantics.up.(2) then begin
        found := true;
        check_close "half service" 0.5 (Semantics.service_level built s);
        Alcotest.(check bool) "not down" false (Semantics.down_pred built s)
      end)
    (all_states built);
  Alcotest.(check bool) "state found" true !found

let test_semantics_cost_structure () =
  let ded =
    Repair.make ~name:"ded" ~strategy:Repair.Dedicated ~idle_cost:1. ~busy_cost:0.
      ~components:[ "a"; "b"; "c" ] ()
  in
  let built = Semantics.build (abc_model ~repair_units:[ ded ] ()) in
  let cost = Semantics.cost_structure built in
  (* all-up state: 3 idle crews = 3; component cost 0 *)
  check_close "idle cost" 3. cost.(0);
  (* a state with k failures costs 3k (components) + (3-k) idle *)
  Array.iteri
    (fun s st ->
      let k =
        Array.fold_left (fun acc up -> if up then acc else acc + 1) 0 st.Semantics.up
      in
      check_close "cost formula" ((3. *. float_of_int k) +. float_of_int (3 - k)) cost.(s))
    (all_states built)

let test_disaster_state_unknown_component () =
  let model = abc_model () in
  match Semantics.disaster_state model ~failed:[ "zz" ] with
  | exception Semantics.Build_error _ -> ()
  | _ -> Alcotest.fail "expected Build_error"

(* ------------------------------------------------------------------ *)
(* Measures *)

let test_measures_survivability_monotone () =
  let ru = fcfs_unit () in
  let model = abc_model ~repair_units:[ ru ] () in
  let init = Semantics.disaster_state model ~failed:[ "a"; "c" ] in
  let m = Measures.analyze ~initial:init model in
  let s1 = Measures.survivability m ~service_level:0.5 ~time:5. in
  let s2 = Measures.survivability m ~service_level:0.5 ~time:20. in
  let s3 = Measures.survivability m ~service_level:1. ~time:20. in
  Alcotest.(check bool) "monotone in t" true (s1 <= s2 +. 1e-12);
  Alcotest.(check bool) "higher level harder" true (s3 <= s2 +. 1e-12);
  Alcotest.(check bool) "non-trivial" true (s1 > 0.01 && s2 < 1.)

let test_measures_survivability_at_zero () =
  (* with only 'a' failed the service level is exactly 1/2: the redundant
     pair delivers half service, the series component is up *)
  let model = abc_model ~repair_units:[ fcfs_unit () ] () in
  let init = Semantics.disaster_state model ~failed:[ "a" ] in
  let m = Measures.analyze ~initial:init model in
  check_close "service 0.5 already there" 1.
    (Measures.survivability m ~service_level:0.5 ~time:0.);
  check_close "full service not yet" 0.
    (Measures.survivability m ~service_level:1. ~time:0.);
  (* failing the series component kills all service *)
  let init_c = Semantics.disaster_state model ~failed:[ "c" ] in
  let m_c = Measures.analyze ~initial:init_c model in
  check_close "no service with c down" 0.
    (Measures.survivability m_c ~service_level:0.5 ~time:0.)

let test_measures_costs () =
  let model = abc_model ~repair_units:[ fcfs_unit () ] () in
  let init = Semantics.disaster_state model ~failed:[ "a"; "b"; "c" ] in
  let m = Measures.analyze ~initial:init model in
  (* at t=0: 3 failed components (cost 9) + 1 busy crew (cost 0) *)
  check_close ~eps:1e-6 "instantaneous at 0" 9. (Measures.instantaneous_cost m ~time:0.);
  let acc5 = Measures.accumulated_cost m ~time:5. in
  let acc10 = Measures.accumulated_cost m ~time:10. in
  Alcotest.(check bool) "accumulated grows" true (acc10 > acc5 && acc5 > 0.);
  (* instantaneous converges to the steady-state cost *)
  let inst = Measures.instantaneous_cost m ~time:2000. in
  check_close ~eps:1e-5 "converges to steady cost" (Measures.steady_state_cost m) inst

let test_measures_csl_agreement () =
  (* every measure computed directly must agree with its CSL query *)
  let model = abc_model ~repair_units:[ fcfs_unit () ] () in
  let m = Measures.analyze model in
  let csl = Measures.to_csl_model m in
  let v q =
    match Csl.Checker.check_string csl q with
    | Csl.Checker.Value v -> v
    | Csl.Checker.Satisfied _ -> Alcotest.fail "expected value"
  in
  check_close ~eps:1e-9 "availability vs CSL" (Measures.availability m)
    (v {|S=? [ "full_service" ]|});
  check_close ~eps:1e-9 "any service vs CSL" (Measures.any_service_availability m)
    (v {|S=? [ "operational" ]|});
  check_close ~eps:1e-9 "unreliability vs CSL"
    (Measures.unreliability m ~time:25.)
    (v {|P=? [ true U<=25 !"full_service" ]|});
  check_close ~eps:1e-9 "cost vs CSL"
    (Measures.accumulated_cost m ~time:10.)
    (v {|R{"cost"}=? [ C<=10 ]|})

let test_combined_availability () =
  check_close ~eps:1e-6 "two lines" 0.9536063
    (Measures.combined_availability [ 0.7442018; 0.8186317 ]);
  check_close "identity" 0.5 (Measures.combined_availability [ 0.5 ]);
  check_close "empty product" 0. (Measures.combined_availability [])

(* ------------------------------------------------------------------ *)
(* Erlang repair stages *)

let erlang_cdf k rate t =
  (* P(Erlang(k, rate) <= t) = 1 - sum_{j<k} e^-rt (rt)^j / j! *)
  let rt = rate *. t in
  let rec go j term acc =
    if j >= k then acc
    else go (j + 1) (term *. rt /. float_of_int (j + 1)) (acc +. term)
  in
  1. -. (Float.exp (-.rt) *. go 0 1. 0.)

let single_staged_model k =
  Model.make ~name:"staged"
    ~components:[ Component.make ~name:"c" ~mttf:1000. ~mttr:10. ~repair_stages:k () ]
    ~repair_units:
      [ Repair.make ~name:"ru" ~strategy:Repair.Dedicated ~components:[ "c" ] () ]
    ~fault_tree:(Fault_tree.basic "c") ()

let test_stages_state_count () =
  let built = Semantics.build (single_staged_model 3) in
  (* up + 3 repair stages *)
  Alcotest.(check int) "4 states" 4 (Chain.states built.Semantics.chain)

let test_stages_repair_distribution () =
  (* from the failed state, the time to repair is Erlang(k, k/mttr) *)
  let k = 4 in
  let model = single_staged_model k in
  let init = Semantics.disaster_state model ~failed:[ "c" ] in
  let m = Measures.analyze ~initial:init model in
  List.iter
    (fun t ->
      check_close ~eps:1e-9
        (Printf.sprintf "erlang cdf at %g" t)
        (erlang_cdf k (float_of_int k /. 10.) t)
        (Measures.survivability m ~service_level:1. ~time:t))
    [ 1.; 5.; 10.; 20. ]

let test_stages_availability_invariant () =
  (* alternating-renewal availability depends only on the means, so the
     dedicated availability must not change with the stage count *)
  let avail k =
    Measures.availability (Measures.analyze (single_staged_model k))
  in
  let base = avail 1 in
  List.iter
    (fun k -> check_close ~eps:1e-9 (Printf.sprintf "k=%d" k) base (avail k))
    [ 2; 3; 5 ]

let test_stages_less_variance_slower_early () =
  (* an Erlang repair rarely finishes early: at t = mttr/2 the repair
     probability is below the exponential's, at t = 2 mttr above *)
  let p k t =
    let model = single_staged_model k in
    let init = Semantics.disaster_state model ~failed:[ "c" ] in
    Measures.survivability (Measures.analyze ~initial:init model) ~service_level:1. ~time:t
  in
  Alcotest.(check bool) "slower at mttr/2" true (p 4 5. < p 1 5.);
  Alcotest.(check bool) "faster at 2 mttr" true (p 4 20. > p 1 20.)

let test_stages_queue_strategy () =
  (* stages compose with queue scheduling; the scheduler invariants hold *)
  let components =
    [
      Component.make ~name:"a" ~mttf:100. ~mttr:2. ~repair_stages:2 ();
      Component.make ~name:"b" ~mttf:100. ~mttr:2. ();
      Component.make ~name:"c" ~mttf:200. ~mttr:10. ~repair_stages:3 ();
    ]
  in
  let model =
    Model.make ~name:"m" ~components
      ~repair_units:[ Repair.make ~name:"ru" ~strategy:Repair.Frf ~components:[ "a"; "b"; "c" ] () ]
      ~fault_tree:abc_tree ()
  in
  let built = Semantics.build model in
  Array.iter
    (fun st ->
      Array.iteri
        (fun i completed ->
          (* stage progress only on components under repair *)
          if completed > 0 then begin
            Alcotest.(check bool) "staged component is down" false st.Semantics.up.(i);
            Alcotest.(check bool) "staged component in repair" true
              (List.mem i st.Semantics.in_repair.(0))
          end)
        st.Semantics.stage)
    (all_states built);
  (* and the two tool-chain paths still agree *)
  let pbuilt = Prism.Builder.build (Prism.Parser.parse_model (To_prism.to_string model)) in
  Alcotest.(check int) "states agree" (Chain.states built.Semantics.chain)
    (Chain.states pbuilt.Prism.Builder.chain);
  Alcotest.(check int) "transitions agree"
    (Chain.transition_count built.Semantics.chain)
    (Chain.transition_count pbuilt.Prism.Builder.chain);
  let m = Measures.analyze model in
  let csl = Csl.Checker.of_built pbuilt in
  (match Csl.Checker.check_string csl {|S=? [ "full_service" ]|} with
  | Csl.Checker.Value v -> check_close ~eps:1e-9 "availability agrees" (Measures.availability m) v
  | Csl.Checker.Satisfied _ -> Alcotest.fail "expected value")

let test_stages_dedicated_two_paths () =
  let model = single_staged_model 3 in
  let built = Semantics.build model in
  let pbuilt = Prism.Builder.build (Prism.Parser.parse_model (To_prism.to_string model)) in
  Alcotest.(check int) "states agree" (Chain.states built.Semantics.chain)
    (Chain.states pbuilt.Prism.Builder.chain)

let test_stages_xml_roundtrip () =
  let model = single_staged_model 5 in
  let model', _ = Xml_io.of_xml (Xml_io.to_xml model) in
  Alcotest.(check int) "stages preserved" 5
    (List.hd model'.Model.components).Component.repair_stages

(* ------------------------------------------------------------------ *)
(* Multiple failure modes *)

let valve ?(minor_mttr = 2.) () =
  Component.make ~name:"valve" ~mttf:1000. ~mttr:50.
    ~extra_modes:
      [ Component.failure_mode ~name:"leak" ~mttf:200. ~mttr:minor_mttr () ]
    ()

let valve_model ?minor_mttr ?(repair_units = []) ?(tree = Fault_tree.basic "valve") () =
  Model.make ~name:"valve_model" ~components:[ valve ?minor_mttr () ] ~repair_units
    ~fault_tree:tree ()

let test_modes_chain_shape () =
  (* up, failed(primary), failed(leak): 3 states *)
  let ded = Repair.make ~name:"r" ~strategy:Repair.Dedicated ~components:[ "valve" ] () in
  let built = Semantics.build (valve_model ~repair_units:[ ded ] ()) in
  Alcotest.(check int) "3 states" 3 (Chain.states built.Semantics.chain)

let test_modes_availability () =
  (* competing exponentials: pi_up = 1 / (1 + l1/m1 + l2/m2) *)
  let ded = Repair.make ~name:"r" ~strategy:Repair.Dedicated ~components:[ "valve" ] () in
  let m = Measures.analyze (valve_model ~repair_units:[ ded ] ()) in
  let l1 = 1. /. 1000. and m1 = 1. /. 50. in
  let l2 = 1. /. 200. and m2 = 1. /. 2. in
  check_close ~eps:1e-9 "availability"
    (1. /. (1. +. (l1 /. m1) +. (l2 /. m2)))
    (Measures.availability m)

let test_modes_specific_literal () =
  (* fault tree over the specific mode: "valve:leak" is down only on leaks *)
  let ded = Repair.make ~name:"r" ~strategy:Repair.Dedicated ~components:[ "valve" ] () in
  let model =
    valve_model ~repair_units:[ ded ] ~tree:(Fault_tree.basic "valve:leak") ()
  in
  let built = Semantics.build model in
  let leak_states = ref 0 and down_states = ref 0 in
  for s = 0 to Chain.states built.Semantics.chain - 1 do
    if Semantics.down_pred built s then incr leak_states;
    if not (Semantics.state built s).Semantics.up.(0) then incr down_states
  done;
  Alcotest.(check int) "one leak state" 1 !leak_states;
  Alcotest.(check int) "two failed states" 2 !down_states;
  (* any-mode literal *)
  let any_model = valve_model ~repair_units:[ ded ] () in
  let built_any = Semantics.build any_model in
  let any_down = ref 0 in
  for s = 0 to Chain.states built_any.Semantics.chain - 1 do
    if Semantics.down_pred built_any s then incr any_down
  done;
  Alcotest.(check int) "both modes down" 2 !any_down

let test_modes_validation () =
  Alcotest.check_raises "unknown mode"
    (Invalid_argument "Model: component valve has no failure mode burst") (fun () ->
      ignore (valve_model ~tree:(Fault_tree.basic "valve:burst") ()));
  Alcotest.check_raises "duplicate mode names"
    (Invalid_argument "Component.make: duplicate failure-mode names") (fun () ->
      ignore
        (Component.make ~name:"x" ~mttf:1. ~mttr:1.
           ~extra_modes:[ Component.failure_mode ~name:"failed" ~mttf:1. ~mttr:1. () ]
           ()))

let test_modes_scheduling_priority () =
  (* FRF must prioritize by the *mode's* repair time: a leak (2 h) beats a
     slow primary repair of another component (50 h) *)
  let other = Component.make ~name:"other" ~mttf:1000. ~mttr:50. () in
  let ru =
    Repair.make ~name:"ru" ~strategy:Repair.Frf ~components:[ "valve"; "other" ] ()
  in
  let model =
    Model.make ~name:"m"
      ~components:[ valve (); other ]
      ~repair_units:[ ru ]
      ~fault_tree:(Fault_tree.and_ [ Fault_tree.basic "valve"; Fault_tree.basic "other" ])
      ()
  in
  (* disaster: other failed (50 h repair) and valve leaking (2 h repair):
     by FRF the leak must be dispatched, 'other' queued *)
  let disaster = Semantics.disaster_state model ~failed:[ "other"; "valve:leak" ] in
  let built = Semantics.build ~initial:disaster model in
  let valve_i = built.Semantics.component_index "valve" in
  Alcotest.(check (list int)) "leak in repair" [ valve_i ] disaster.Semantics.in_repair.(0);
  (* but a primary valve failure (50 h, equal to other) ranks behind the
     earlier-failed other under FCFS tie-breaking *)
  let disaster2 = Semantics.disaster_state model ~failed:[ "other"; "valve" ] in
  Alcotest.(check int) "tie broken by declaration order" valve_i
    (List.hd disaster2.Semantics.in_repair.(0))

let test_modes_mode_cost () =
  let c =
    Component.make ~name:"c" ~mttf:100. ~mttr:1. ~failed_cost:3.
      ~extra_modes:
        [ Component.failure_mode ~name:"major" ~mttf:100. ~mttr:1. ~failed_cost:10. () ]
      ()
  in
  let model =
    Model.make ~name:"m" ~components:[ c ]
      ~repair_units:[ Repair.make ~name:"r" ~strategy:Repair.Dedicated ~components:[ "c" ] () ]
      ~fault_tree:(Fault_tree.basic "c") ()
  in
  let built = Semantics.build model in
  let cost = Semantics.cost_structure built in
  (* find the major-mode state: cost 10 + 0 idle crews... the dedicated
     crew is busy, idle = 0, so state cost = 10 *)
  let costs = Array.to_list cost |> List.sort compare in
  Alcotest.(check (list (float 1e-9))) "costs" [ 1.; 3.; 10. ] costs

let test_modes_xml_roundtrip () =
  let model = valve_model () in
  let model', _ = Xml_io.of_xml (Xml_io.to_xml model) in
  let c = List.hd model'.Model.components in
  Alcotest.(check int) "extra mode preserved" 1 (List.length c.Component.extra_modes);
  let m = List.hd c.Component.extra_modes in
  Alcotest.(check string) "mode name" "leak" m.Component.fm_name;
  check_close "mode mttr" 2. m.Component.fm_mttr

let test_modes_prism_rejected () =
  match To_prism.translate (valve_model ()) with
  | exception To_prism.Untranslatable _ -> ()
  | _ -> Alcotest.fail "expected Untranslatable"

let test_modes_importance () =
  let ded = Repair.make ~name:"r" ~strategy:Repair.Dedicated ~components:[ "valve" ] () in
  let model =
    valve_model ~repair_units:[ ded ]
      ~tree:(Fault_tree.or_ [ Fault_tree.basic "valve:leak"; Fault_tree.basic "valve:failed" ])
      ()
  in
  let built = Semantics.build model in
  let marginals = Core.Importance.marginal_unavailabilities built in
  Alcotest.(check int) "two literals" 2 (List.length marginals);
  let l1 = 1. /. 1000. and m1 = 1. /. 50. in
  let l2 = 1. /. 200. and m2 = 1. /. 2. in
  let z = 1. +. (l1 /. m1) +. (l2 /. m2) in
  check_close ~eps:1e-9 "leak marginal" (l2 /. m2 /. z) (List.assoc "valve:leak" marginals);
  check_close ~eps:1e-9 "primary marginal" (l1 /. m1 /. z)
    (List.assoc "valve:failed" marginals)

let test_modes_example_file () =
  (* the checked-in example exercises modes + stages + cold spare +
     priority scheduling through the XML front door *)
  let path = "../models/pipeline_modes.xml" in
  if Sys.file_exists path then begin
    let model, measures = Xml_io.load path in
    Alcotest.(check int) "measures" 3 (List.length measures);
    let m = Measures.analyze model in
    let csl = Measures.to_csl_model m in
    List.iter
      (fun { Xml_io.measure_name; query } ->
        match Csl.Checker.check_string csl query with
        | Csl.Checker.Value v ->
            Alcotest.(check bool) (measure_name ^ " in range") true (v >= 0. && v <= 100.)
        | Csl.Checker.Satisfied _ -> ())
      measures;
    (* the cold pump spare cannot fail while pump1 is up *)
    let built = Measures.built m in
    let all_up = 0 in
    let pump2 = built.Semantics.component_index "pump2" in
    let initial_exit = (Ctmc.Chain.exit_rates built.Semantics.chain).(all_up) in
    ignore pump2;
    (* exits from all-up: pump1 (1/500) + valve (3 modes) + controller *)
    check_close ~eps:1e-9 "cold spare dormant"
      ((1. /. 500.) +. (1. /. 4000.) +. (1. /. 800.) +. (1. /. 10000.) +. (1. /. 8000.))
      initial_exit
  end
  else Alcotest.(check pass) "model file not present in sandbox" () ()

(* ------------------------------------------------------------------ *)
(* Importance and hitting-time measures *)

let test_importance_series_parallel () =
  (* abc model under dedicated repair: independent components, closed forms *)
  let ded =
    Repair.make ~name:"ded" ~strategy:Repair.Dedicated ~components:[ "a"; "b"; "c" ] ()
  in
  let built = Semantics.build (abc_model ~repair_units:[ ded ] ()) in
  let qa = 2. /. 102. and qc = 10. /. 210. in
  let marginals = Core.Importance.marginal_unavailabilities built in
  check_close ~eps:1e-9 "marginal a" qa (List.assoc "a" marginals);
  check_close ~eps:1e-9 "marginal c" qc (List.assoc "c" marginals);
  let indices = Core.Importance.analyze built in
  let find name = List.find (fun i -> i.Core.Importance.component = name) indices in
  (* system down = (a and b) or c *)
  let birnbaum_a = (find "a").Core.Importance.birnbaum in
  check_close ~eps:1e-9 "birnbaum a = q_b (1 - q_c)" (qa *. (1. -. qc)) birnbaum_a;
  let birnbaum_c = (find "c").Core.Importance.birnbaum in
  check_close ~eps:1e-9 "birnbaum c = 1 - q_a q_b" (1. -. (qa *. qa)) birnbaum_c;
  (* c is the weak point: higher birnbaum than a *)
  Alcotest.(check bool) "ranking" true (birnbaum_c > birnbaum_a);
  (* fussell-vesely of c: 1 - P(down | c perfect)/P(down) *)
  let baseline = (qa *. qa) +. qc -. (qa *. qa *. qc) in
  check_close ~eps:1e-9 "fussell-vesely c" (1. -. (qa *. qa /. baseline))
    (find "c").Core.Importance.fussell_vesely

let test_importance_bounds () =
  let model = abc_model () in
  check_close "all perfect" 0. (Core.Importance.system_unavailability model ~q:(fun _ -> 0.));
  check_close "all failed" 1. (Core.Importance.system_unavailability model ~q:(fun _ -> 1.));
  match Core.Importance.system_unavailability model ~q:(fun _ -> 2.) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of q > 1"

let test_mean_time_measures () =
  let ded =
    Repair.make ~name:"ded" ~strategy:Repair.Dedicated ~components:[ "a"; "b"; "c" ] ()
  in
  let m = Measures.analyze (abc_model ~repair_units:[ ded ] ()) in
  (* first degradation = first failure of any component: rate 1/100+1/100+1/200 *)
  check_close ~eps:1e-6 "time to degradation" (1. /. 0.025)
    (Measures.mean_time_to_degradation m);
  let loss = Measures.mean_time_to_service_loss m in
  Alcotest.(check bool) "total loss takes longer" true
    (loss > Measures.mean_time_to_degradation m);
  Alcotest.(check bool) "finite" true (Float.is_finite loss)

let test_mixed_disasters () =
  let model = abc_model ~repair_units:[ fcfs_unit () ] () in
  let d_small = [ "a" ] and d_big = [ "a"; "b"; "c" ] in
  let mixed = Measures.analyze_mixed_disasters model [ (0.75, d_big); (0.25, d_small) ] in
  let pure failed = Measures.analyze ~initial:(Semantics.disaster_state model ~failed) model in
  let level = 0.5 and time = 8. in
  let expected =
    (0.75 *. Measures.survivability (pure d_big) ~service_level:level ~time)
    +. (0.25 *. Measures.survivability (pure d_small) ~service_level:level ~time)
  in
  check_close ~eps:1e-9 "mixture = weighted average" expected
    (Measures.survivability mixed ~service_level:level ~time);
  (* cost measures mix too *)
  let expected_cost =
    (0.75 *. Measures.accumulated_cost (pure d_big) ~time:5.)
    +. (0.25 *. Measures.accumulated_cost (pure d_small) ~time:5.)
  in
  check_close ~eps:1e-9 "mixed cost" expected_cost
    (Measures.accumulated_cost mixed ~time:5.);
  Alcotest.check_raises "empty mixture"
    (Invalid_argument "Measures.analyze_mixed_disasters: empty mixture") (fun () ->
      ignore (Measures.analyze_mixed_disasters model []))

let test_two_repair_units_product () =
  (* two independent subsystems with their own repair units in one model:
     availability must factorize *)
  let components =
    [
      comp "a"; comp "b"; (* unit 1, fcfs *)
      comp ~mttf:300. ~mttr:4. "x"; comp ~mttf:300. ~mttr:4. "y"; (* unit 2 *)
    ]
  in
  let ru1 = Repair.make ~name:"ru1" ~strategy:Repair.Fcfs ~components:[ "a"; "b" ] () in
  let ru2 = Repair.make ~name:"ru2" ~strategy:Repair.Frf ~components:[ "x"; "y" ] () in
  let tree names = Fault_tree.and_ (List.map Fault_tree.basic names) in
  let joint =
    Model.make ~name:"joint" ~components ~repair_units:[ ru1; ru2 ]
      ~fault_tree:(Fault_tree.or_ [ tree [ "a"; "b" ]; tree [ "x"; "y" ] ]) ()
  in
  let left =
    Model.make ~name:"left" ~components:[ comp "a"; comp "b" ] ~repair_units:[ ru1 ]
      ~fault_tree:(tree [ "a"; "b" ]) ()
  in
  let right =
    Model.make ~name:"right"
      ~components:[ comp ~mttf:300. ~mttr:4. "x"; comp ~mttf:300. ~mttr:4. "y" ]
      ~repair_units:[ ru2 ] ~fault_tree:(tree [ "x"; "y" ]) ()
  in
  let availability model = Measures.availability (Measures.analyze model) in
  (* full-service availability of independent subsystems factorizes *)
  check_close ~eps:1e-9 "product form" (availability left *. availability right)
    (availability joint);
  (* state space is the product of the sub-spaces *)
  let states model = Chain.states (Semantics.build model).Semantics.chain in
  Alcotest.(check int) "product state space" (states left * states right) (states joint)

(* ------------------------------------------------------------------ *)
(* XML *)

let full_model () =
  abc_model
    ~repair_units:[ fcfs_unit ~crews:2 () ]
    ()

let test_xml_roundtrip () =
  let model = full_model () in
  let measures = [ { Xml_io.measure_name = "avail"; query = "S=? [ \"operational\" ]" } ] in
  let doc = Xml_io.to_xml ~measures model in
  let model', measures' = Xml_io.of_xml doc in
  Alcotest.(check string) "name" model.Model.name model'.Model.name;
  Alcotest.(check int) "components" 3 (List.length model'.Model.components);
  Alcotest.(check bool) "components equal" true
    (List.for_all2 Component.equal model.Model.components model'.Model.components);
  Alcotest.(check bool) "fault tree equal" true
    (Fault_tree.equal model.Model.fault_tree model'.Model.fault_tree);
  Alcotest.(check int) "measures" 1 (List.length measures');
  (* semantic equality: same availability *)
  check_close ~eps:1e-12 "same availability"
    (Measures.availability (Measures.analyze model))
    (Measures.availability (Measures.analyze model'))

let test_xml_roundtrip_through_text () =
  let model = full_model () in
  let text = Xml_kit.to_string (Xml_io.to_xml model) in
  let model', _ = Xml_io.of_xml (Xml_kit.parse_string text) in
  Alcotest.(check bool) "repair units preserved" true
    (model.Model.repair_units = model'.Model.repair_units)

let test_xml_spare_units () =
  let model =
    Model.make ~name:"m"
      ~components:[ comp "p1"; comp "s1" ]
      ~spare_units:
        [ Spare.make ~name:"smu" ~mode:(Spare.Warm 0.25) ~primaries:[ "p1" ]
            ~spares:[ "s1" ] () ]
      ~fault_tree:(Fault_tree.basic "p1") ()
  in
  let model', _ = Xml_io.of_xml (Xml_io.to_xml model) in
  Alcotest.(check bool) "spare preserved" true (model.Model.spare_units = model'.Model.spare_units)

let test_xml_schema_errors () =
  let bad = Xml_kit.element "wrong" [] [] in
  (match Xml_io.of_xml bad with
  | exception Xml_io.Schema_error _ -> ()
  | _ -> Alcotest.fail "expected schema error");
  let no_ft =
    Xml_kit.element "arcade" [ ("name", "m") ]
      [ Xml_kit.element "components" []
          [ Xml_kit.element "component"
              [ ("name", "a"); ("mttf", "1"); ("mttr", "1") ] [] ] ]
  in
  match Xml_io.of_xml no_ft with
  | exception Xml_io.Schema_error _ -> ()
  | _ -> Alcotest.fail "expected missing fault tree error"

let test_xml_priority_strategy () =
  let ru =
    Repair.make ~name:"r" ~strategy:(Repair.Priority [ "c"; "a"; "b" ])
      ~components:[ "a"; "b"; "c" ] ()
  in
  let model = abc_model ~repair_units:[ ru ] () in
  let model', _ = Xml_io.of_xml (Xml_io.to_xml model) in
  match (List.hd model'.Model.repair_units).Repair.strategy with
  | Repair.Priority order -> Alcotest.(check (list string)) "order" [ "c"; "a"; "b" ] order
  | _ -> Alcotest.fail "expected priority strategy"

let test_degradation_scenario () =
  let ded =
    Repair.make ~name:"ded" ~strategy:Repair.Dedicated ~components:[ "a"; "b"; "c" ] ()
  in
  let m = Measures.analyze (abc_model ~repair_units:[ ded ] ()) in
  match Measures.most_likely_degradation_scenario m with
  | Some (events, p) ->
      (* a single failure degrades service; the likeliest culprits are the
         fast-failing a or b (equal rates), ahead of c *)
      Alcotest.(check int) "one event" 1 (List.length events);
      let event = List.hd events in
      Alcotest.(check bool) "a or b fails" true
        (event = "a fails" || event = "b fails");
      check_close ~eps:1e-9 "jump probability" (0.01 /. 0.025) p
  | None -> Alcotest.fail "expected a scenario"

(* ------------------------------------------------------------------ *)
(* DOT export *)

let balanced_braces s =
  let depth = ref 0 and ok = ref true in
  String.iter
    (fun c ->
      if c = '{' then incr depth
      else if c = '}' then begin
        decr depth;
        if !depth < 0 then ok := false
      end)
    s;
  !ok && !depth = 0

let test_export_fault_tree () =
  let dot = Core.Export.fault_tree_to_dot abc_tree in
  Alcotest.(check bool) "digraph" true (String.length dot > 0 && String.sub dot 0 7 = "digraph");
  Alcotest.(check bool) "balanced" true (balanced_braces dot);
  List.iter
    (fun fragment ->
      Alcotest.(check bool) (fragment ^ " present") true
        (Astring_like.contains dot fragment))
    [ "AND"; "OR"; "basic_a"; "basic_c"; "system_down" ]

let test_export_model () =
  let model = abc_model ~repair_units:[ fcfs_unit ~crews:2 () ] () in
  let dot = Core.Export.model_to_dot model in
  Alcotest.(check bool) "balanced" true (balanced_braces dot);
  List.iter
    (fun fragment ->
      Alcotest.(check bool) (fragment ^ " present") true
        (Astring_like.contains dot fragment))
    [ "cluster_ru_0"; "fcfs, 2 crews"; "comp_a"; "MTTF 100"; "cluster_ft" ]

let test_export_chain () =
  let built = Semantics.build (abc_model ()) in
  let dot = Core.Export.chain_to_dot built in
  Alcotest.(check bool) "balanced" true (balanced_braces dot);
  Alcotest.(check bool) "all-up state" true (Astring_like.contains dot "all up");
  Alcotest.(check bool) "rates on edges" true (Astring_like.contains dot "0.01")

let test_export_chain_too_large () =
  let built =
    Semantics.build (abc_model ~repair_units:[ fcfs_unit () ] ())
  in
  match Core.Export.chain_to_dot ~max_states:3 built with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected size limit"

(* ------------------------------------------------------------------ *)
(* PRISM translation: equivalence with the direct semantics *)

let assert_paths_agree model =
  let direct = Semantics.build model in
  let built = Prism.Builder.build (Prism.Parser.parse_model (To_prism.to_string model)) in
  Alcotest.(check int) "same states"
    (Chain.states direct.Semantics.chain)
    (Chain.states built.Prism.Builder.chain);
  Alcotest.(check int) "same transitions"
    (Chain.transition_count direct.Semantics.chain)
    (Chain.transition_count built.Prism.Builder.chain);
  let csl = Csl.Checker.of_built built in
  let v q =
    match Csl.Checker.check_string csl q with
    | Csl.Checker.Value v -> v
    | Csl.Checker.Satisfied _ -> Alcotest.fail "expected value"
  in
  let m = Measures.analyze model in
  check_close ~eps:1e-9 "availability agrees" (Measures.availability m)
    (v {|S=? [ "full_service" ]|});
  check_close ~eps:1e-9 "cost agrees"
    (Measures.accumulated_cost m ~time:20.)
    (v {|R{"cost"}=? [ C<=20 ]|})

let test_to_prism_fcfs () = assert_paths_agree (abc_model ~repair_units:[ fcfs_unit () ] ())

let test_to_prism_two_crews () =
  assert_paths_agree (abc_model ~repair_units:[ fcfs_unit ~crews:2 () ] ())

let test_to_prism_dedicated () =
  assert_paths_agree
    (abc_model
       ~repair_units:
         [ Repair.make ~name:"ded" ~strategy:Repair.Dedicated ~components:[ "a"; "b"; "c" ] () ]
       ())

let test_to_prism_frf () =
  let components =
    [ comp ~mttr:1. "a"; comp ~mttr:5. "b"; comp ~mttr:1. ~mttf:300. "c" ]
  in
  let model =
    Model.make ~name:"m" ~components
      ~repair_units:
        [ Repair.make ~name:"ru" ~strategy:Repair.Frf ~components:[ "a"; "b"; "c" ] () ]
      ~fault_tree:abc_tree ()
  in
  assert_paths_agree model

let test_to_prism_unrepaired () = assert_paths_agree (abc_model ())

let test_to_prism_disaster_initial () =
  let model = abc_model ~repair_units:[ fcfs_unit () ] () in
  let init = Semantics.disaster_state model ~failed:[ "a"; "b" ] in
  let direct = Measures.analyze ~initial:init model in
  let built =
    Prism.Builder.build (Prism.Parser.parse_model (To_prism.to_string ~initial:init model))
  in
  let csl = Csl.Checker.of_built built in
  let v q =
    match Csl.Checker.check_string csl q with
    | Csl.Checker.Value v -> v
    | Csl.Checker.Satisfied _ -> Alcotest.fail "expected value"
  in
  check_close ~eps:1e-9 "survivability agrees"
    (Measures.survivability direct ~service_level:1. ~time:10.)
    (v {|P=? [ true U<=10 "full_service" ]|})

let test_to_prism_rejects_preemptive () =
  let model = abc_model ~repair_units:[ fcfs_unit ~preemptive:true () ] () in
  match To_prism.translate model with
  | exception To_prism.Untranslatable _ -> ()
  | _ -> Alcotest.fail "expected Untranslatable"

let test_to_prism_rejects_cold_spare () =
  let model =
    Model.make ~name:"m"
      ~components:[ comp "p1"; comp "s1" ]
      ~spare_units:
        [ Spare.make ~name:"smu" ~mode:Spare.Cold ~primaries:[ "p1" ] ~spares:[ "s1" ] () ]
      ~fault_tree:(Fault_tree.basic "p1") ()
  in
  match To_prism.translate model with
  | exception To_prism.Untranslatable _ -> ()
  | _ -> Alcotest.fail "expected Untranslatable"

let test_sanitize () =
  Alcotest.(check string) "dashes" "a_b" (To_prism.sanitize "a-b");
  Alcotest.(check string) "leading digit" "c_1x" (To_prism.sanitize "1x");
  Alcotest.(check string) "empty" "x" (To_prism.sanitize "")

(* the generated text must parse as PRISM (sanity of the printer output) *)
let test_to_prism_output_parses () =
  let model = abc_model ~repair_units:[ fcfs_unit ~crews:2 () ] () in
  let text = To_prism.to_string model in
  let parsed = Prism.Parser.parse_model text in
  Alcotest.(check bool) "has labels" true (List.length parsed.Prism.Ast.labels >= 3);
  Alcotest.(check int) "three reward structures" 3 (List.length parsed.Prism.Ast.rewards)

(* ------------------------------------------------------------------ *)
(* Property tests over random Arcade models *)

let random_model_gen =
  QCheck.Gen.(
    let* n = int_range 2 5 in
    let names = List.init n (fun i -> Printf.sprintf "c%d" i) in
    let* mttfs = list_size (return n) (float_range 50. 5000.) in
    let* mttrs = list_size (return n) (float_range 0.5 100.) in
    let* stages = list_size (return n) (int_range 1 2) in
    let components =
      List.map2
        (fun name ((mttf, mttr), repair_stages) ->
          Component.make ~name ~mttf ~mttr ~repair_stages ())
        names
        (List.combine (List.combine mttfs mttrs) stages)
    in
    let* strategy = oneofl [ Repair.Dedicated; Repair.Fcfs; Repair.Frf; Repair.Fff ] in
    let* crews = int_range 1 2 in
    let ru = Repair.make ~name:"ru" ~strategy ~crews ~components:names () in
    (* random monotone fault tree over the components *)
    let* tree =
      let basic_gen = map (fun i -> Fault_tree.basic (Printf.sprintf "c%d" (i mod n))) (int_range 0 (n - 1)) in
      let* shape = int_range 0 2 in
      match shape with
      | 0 -> return (Fault_tree.or_ (List.map Fault_tree.basic names))
      | 1 ->
          let* a = basic_gen and* b = basic_gen in
          return (Fault_tree.or_ [ Fault_tree.and_ [ a; b ]; List.hd (List.map Fault_tree.basic names) ])
      | _ ->
          let* k = int_range 1 n in
          return (Fault_tree.kofn k (List.map Fault_tree.basic names))
    in
    return (Model.make ~name:"random" ~components ~repair_units:[ ru ] ~fault_tree:tree ()))

let prop_two_paths_agree =
  QCheck.Test.make ~count:40 ~name:"random models: semantics = prism translation"
    (QCheck.make random_model_gen)
    (fun model ->
      let direct = Semantics.build model in
      let built =
        Prism.Builder.build (Prism.Parser.parse_model (To_prism.to_string model))
      in
      Chain.states direct.Semantics.chain = Chain.states built.Prism.Builder.chain
      && Chain.transition_count direct.Semantics.chain
         = Chain.transition_count built.Prism.Builder.chain
      &&
      let m = Measures.analyze model in
      let csl = Csl.Checker.of_built built in
      match Csl.Checker.check_string csl {|S=? [ "full_service" ]|} with
      | Csl.Checker.Value v -> Float.abs (v -. Measures.availability m) < 1e-8
      | Csl.Checker.Satisfied _ -> false)

let prop_measures_sane =
  QCheck.Test.make ~count:40 ~name:"random models: measures are sane"
    (QCheck.make random_model_gen)
    (fun model ->
      let m = Measures.analyze model in
      let a = Measures.availability m in
      let any = Measures.any_service_availability m in
      let r10 = Measures.reliability m ~time:10. in
      let r100 = Measures.reliability m ~time:100. in
      a >= -1e-9 && a <= 1. +. 1e-9
      && any >= a -. 1e-9 (* some service is implied by full service *)
      && r100 <= r10 +. 1e-9
      && Measures.accumulated_cost m ~time:5. >= -1e-9)

let prop_survivability_monotone =
  QCheck.Test.make ~count:25 ~name:"random models: survivability monotone in time"
    (QCheck.make random_model_gen)
    (fun model ->
      (* fail the first two components *)
      let failed =
        match Model.component_names model with
        | a :: b :: _ -> [ a; b ]
        | other -> other
      in
      let init = Semantics.disaster_state model ~failed in
      let m = Measures.analyze ~initial:init model in
      let levels = Model.service_levels model in
      List.for_all
        (fun level ->
          level <= 0.
          ||
          let s1 = Measures.survivability m ~service_level:level ~time:2. in
          let s2 = Measures.survivability m ~service_level:level ~time:20. in
          s1 <= s2 +. 1e-9)
        levels)

(* ------------------------------------------------------------------ *)
(* Exploration: the chains of the shipped models, pinned *)

(* FNV-1a over 4 little-endian bytes per int: the row pointers, then the
   column indices *)
let chain_fingerprint chain =
  let r = Chain.rates chain in
  let n = Numeric.Sparse.rows r in
  let mix h x =
    let h = ref h in
    for b = 0 to 3 do
      h :=
        Int64.mul
          (Int64.logxor !h (Int64.of_int ((x lsr (8 * b)) land 0xff)))
          0x100000001b3L
    done;
    !h
  in
  let h = ref (mix 0xcbf29ce484222325L 0) and ptr = ref 0 in
  for i = 0 to n - 1 do
    Numeric.Sparse.iter_row r i (fun _ _ -> incr ptr);
    h := mix !h !ptr
  done;
  let sum = ref 0. in
  for i = 0 to n - 1 do
    Numeric.Sparse.iter_row r i (fun j x ->
        h := mix !h j;
        sum := !sum +. x)
  done;
  (n, Numeric.Sparse.nnz r, !h, !sum)

(* (chain, states, transitions, structure hash, sum of rates), recorded
   with the string-keyed explorer this one replaced: the numbering and
   the CSR structure must not move *)
let pinned_chains =
  [
    ("line1_ded", 2048, 22528, 0x68639c19690df01dL, 4839.4240000004356);
    ("line1_frf-1", 111809, 469007, 0xb68fec9aca111bedL, 41082.492999946408);
    ("line1_frf-2", 178606, 895331, 0xf89eb5262bae8967L, 134202.46299881762);
    ("line1_fff-1", 111809, 469007, 0x9fa7e3b95c788da5L, 41082.492999946408);
    ("line1_fff-2", 178606, 895331, 0x5b4fbb95e8d4b095L, 134202.46299881762);
    ("line2_ded", 512, 4608, 0x327322a7a75f08f3L, 950.5279999999965);
    ("line2_frf-1", 8129, 32029, 0x2425338a902af1d9L, 3031.8400000004708);
    ("line2_frf-2", 11956, 56013, 0x622a8f771b23f191L, 9129.5043333380472);
    ("line2_fff-1", 8129, 32029, 0x3e976bd30187a7a9L, 3031.8400000004708);
    ("line2_fff-2", 11956, 56013, 0x691454612ffd6187L, 9129.5043333380472);
    ("substation", 3969, 19529, 0x9f4887c600ffcf79L, 291.50237638612299);
    ("pipeline_modes", 169, 451, 0x1f2b1484c443d271L, 70.036602777777787);
    ("line2_frf-1+disaster", 8129, 32029, 0x2f4b9588832e7b64L, 3031.8400000006359);
    ("line2_frf-1+preemptive", 2560, 10687, 0x37b8aacfcf1f726bL, 2438.7180000000403);
    ("line2_fff-2+disaster", 11956, 56013, 0xc48e5a3e0e0ac22eL, 9129.5043333374906);
    ("line2_fff-2+preemptive", 2560, 13237, 0xbb669ee9129c986dL, 4375.5713333335771);
  ]

let disaster_model = [ "pump1"; "pump2"; "st1"; "sf1"; "res" ]

let load_model name = fst (Xml_io.load ("../models/" ^ name ^ ".xml"))

let preemptive_variant model =
  Model.with_repair_units model
    (List.map
       (fun ru ->
         Repair.make ~name:ru.Repair.name ~strategy:ru.Repair.strategy
           ~crews:ru.Repair.crews ~preemptive:true ~components:ru.Repair.components ())
       model.Model.repair_units)

(* the pinned chain names: a model file, optionally "+disaster" (rooted
   at [disaster_model]) or "+preemptive" (preemptive units, same root) *)
let pinned_build key =
  match String.index_opt key '+' with
  | None -> Semantics.build (load_model key)
  | Some k ->
      let model = load_model (String.sub key 0 k) in
      let model =
        if String.sub key k (String.length key - k) = "+preemptive" then
          preemptive_variant model
        else model
      in
      Semantics.build ~initial:(Semantics.disaster_state model ~failed:disaster_model) model

let test_chain_fingerprints () =
  List.iter
    (fun (key, states, nnz, hash, sum) ->
      let n, nnz', hash', sum' = chain_fingerprint (pinned_build key).Semantics.chain in
      Alcotest.(check int) (key ^ " states") states n;
      Alcotest.(check int) (key ^ " transitions") nnz nnz';
      Alcotest.(check string) (key ^ " structure")
        (Printf.sprintf "%016Lx" hash) (Printf.sprintf "%016Lx" hash');
      check_close ~eps:(1e-12 *. sum) (key ^ " rate sum") sum sum')
    pinned_chains

let test_state_bijection () =
  List.iter
    (fun key ->
      let built = pinned_build key in
      for s = 0 to Chain.states built.Semantics.chain - 1 do
        match built.Semantics.state_index (Semantics.state built s) with
        | Some s' when s' = s -> ()
        | _ -> Alcotest.failf "%s: state %d does not decode to itself" key s
      done)
    [
      "line1_ded"; "line2_ded"; "line2_frf-1"; "line2_frf-2"; "line2_fff-2";
      "substation"; "pipeline_modes"; "line2_frf-1+disaster"; "line2_frf-1+preemptive";
    ]

(* A preemptive FRF unit of 16 members with distinct repair times: its
   queue slots need 80 bits, more than one word holds, so the queue spans
   two words. The canonical queue is the failed set in
   rank order, so there is one state per failed set; each state has one
   failure per operational member plus one repair when any is failed. *)
let test_wide_queue () =
  let names = List.init 16 (Printf.sprintf "c%02d") in
  let model =
    Model.make ~name:"wide"
      ~components:
        (List.mapi (fun k name -> comp ~mttf:1000. ~mttr:(float_of_int (k + 1)) name) names)
      ~repair_units:
        [ Repair.make ~name:"ru" ~strategy:Repair.Frf ~preemptive:true ~components:names () ]
      ~fault_tree:(Fault_tree.and_ (List.map Fault_tree.basic names)) ()
  in
  let built = Semantics.build model in
  let n = Chain.states built.Semantics.chain in
  Alcotest.(check int) "one state per failed set" 65536 n;
  Alcotest.(check int) "transitions" ((16 * 32768) + 65535)
    (Chain.transition_count built.Semantics.chain);
  for s = 0 to n - 1 do
    let st = Semantics.state built s in
    let failed = List.filter (fun i -> not st.Semantics.up.(i)) (List.init 16 Fun.id) in
    (* component k has MTTR k + 1, so rank order is index order *)
    Alcotest.(check (list int)) "queue = failed set in rank order" failed st.Semantics.queue.(0);
    if built.Semantics.state_index st <> Some s then Alcotest.failf "state %d: bijection" s
  done

(* The repair sets and costs read off the packed codes equal the ones
   computed from the decoded state: every failed member of a dedicated
   unit, the first [crews] queued members of a preemptive unit, the
   in-repair list of a shared-crew unit. The shipped models have one
   unit each, so a model with one unit of each kind (the shared one
   declaring its members out of component order) is checked too. *)
let test_repair_sets_and_costs () =
  let three_units =
    let names = [ "a"; "b"; "c"; "d"; "e"; "f"; "g" ] in
    Model.make ~name:"three"
      ~components:(List.mapi (fun k name -> comp ~mttr:(float_of_int (k + 1)) name) names)
      ~repair_units:
        [
          Repair.make ~name:"ded" ~strategy:Repair.Dedicated ~busy_cost:2. ~components:[ "a"; "b" ] ();
          Repair.make ~name:"pre" ~strategy:Repair.Frf ~preemptive:true ~busy_cost:3.
            ~components:[ "c"; "d"; "e" ] ();
          Repair.make ~name:"sh" ~strategy:Repair.Fcfs ~busy_cost:5. ~components:[ "g"; "f" ] ();
        ]
      ~fault_tree:(Fault_tree.and_ (List.map Fault_tree.basic names)) ()
  in
  List.iter
    (fun (key, built) ->
      let model = built.Semantics.model in
      let cost = Semantics.cost_structure built in
      if Semantics.cost_structure built != cost then Alcotest.failf "%s: costs recomputed" key;
      let comp_cost, ru_cost = Semantics.cost_structures built in
      for s = 0 to Chain.states built.Semantics.chain - 1 do
        let st = Semantics.state built s in
        let repairing u ru =
          if ru.Repair.strategy = Repair.Dedicated then
            List.filter
              (fun i -> not st.Semantics.up.(i))
              (List.map built.Semantics.component_index ru.Repair.components)
          else if ru.Repair.preemptive then
            List.filteri (fun k _ -> k < ru.Repair.crews) st.Semantics.queue.(u)
          else st.Semantics.in_repair.(u)
        in
        let sets = List.mapi repairing model.Model.repair_units in
        Alcotest.(check (list int))
          (Printf.sprintf "%s: state %d under repair" key s)
          (List.concat sets) (Semantics.under_repair built s);
        let component i c =
          if st.Semantics.up.(i) then c.Component.operational_cost
          else (List.nth (Component.modes c) st.Semantics.failed_mode.(i)).Component.fm_failed_cost
        in
        let crews ru set =
          let busy = List.length set in
          (float_of_int busy *. ru.Repair.busy_cost)
          +. (float_of_int (Repair.crew_count ru - busy) *. ru.Repair.idle_cost)
        in
        let expected_comp = List.fold_left ( +. ) 0. (List.mapi component model.Model.components) in
        let expected_ru = List.fold_left ( +. ) 0. (List.map2 crews model.Model.repair_units sets) in
        check_close (key ^ " component cost") expected_comp comp_cost.(s);
        check_close (key ^ " repair cost") expected_ru ru_cost.(s);
        check_close (key ^ " cost") (expected_comp +. expected_ru) cost.(s)
      done)
    (("three units", Semantics.build three_units)
    :: List.map
         (fun key -> (key, pinned_build key))
         [
           "line1_ded"; "line2_frf-2"; "line2_fff-2"; "line2_frf-1+preemptive"; "substation";
           "pipeline_modes";
         ])

(* a model with one single-crew FRF unit over a, b and d (at most two of
   them wait) and an unrepaired, two-mode, Erlang-staged c *)
let validation_model () =
  Model.make ~name:"v"
    ~components:
      [
        comp "a";
        comp "b";
        Component.make ~name:"c" ~mttf:100. ~mttr:2. ~repair_stages:3
          ~extra_modes:[ Component.failure_mode ~name:"leak" ~mttf:50. ~mttr:1. () ]
          ();
        comp "d";
      ]
    ~repair_units:
      [ Repair.make ~name:"ru" ~strategy:Repair.Frf ~components:[ "a"; "b"; "d" ] () ]
    ~fault_tree:abc_tree ()

let expect_build_error what fragment initial =
  match Semantics.build ~initial (validation_model ()) with
  | exception Semantics.Build_error msg ->
      if not (Astring_like.contains msg fragment) then
        Alcotest.failf "%s: message %S does not name %S" what msg fragment
  | _ -> Alcotest.failf "%s: initial state accepted" what

(* the validation model's state with a and b failed: a in repair, b queued *)
let valid_initial () =
  let st = Semantics.all_up_state (validation_model ()) in
  st.Semantics.up.(0) <- false;
  st.Semantics.up.(1) <- false;
  st.Semantics.in_repair.(0) <- [ 0 ];
  st.Semantics.queue.(0) <- [ 1 ];
  st

let test_valid_initial () =
  let built = Semantics.build ~initial:(valid_initial ()) (validation_model ()) in
  Alcotest.(check (option int)) "initial is state 0" (Some 0)
    (built.Semantics.state_index (valid_initial ()))

(* (case, word the message must contain, the invalid initial state) *)
let invalid_initials =
  let with_ f =
    let st = valid_initial () in
    f st;
    st
  in
  [
    ( "failed_mode out of range", "failed_mode",
      with_ (fun st -> st.Semantics.failed_mode.(2) <- 2) );
    ("negative failed_mode", "failed_mode", with_ (fun st -> st.Semantics.failed_mode.(0) <- -1));
    ("stage out of range", "stage", with_ (fun st -> st.Semantics.stage.(2) <- 3));
    ("queue entry out of range", "queue", with_ (fun st -> st.Semantics.queue.(0) <- [ 7 ]));
    ("per-unit array length", "queue", { (valid_initial ()) with Semantics.queue = [| [ 1 ]; [] |] });
    ("per-unit in_repair length", "in_repair", { (valid_initial ()) with Semantics.in_repair = [||] });
    ("per-component array length", "stage", { (valid_initial ()) with Semantics.stage = [| 0 |] });
    ( "duplicate queued component", "twice",
      with_ (fun st ->
          st.Semantics.in_repair.(0) <- [];
          st.Semantics.queue.(0) <- [ 1; 1 ]) );
    ( "component queued in the wrong unit", "does not repair",
      with_ (fun st ->
          st.Semantics.up.(2) <- false;
          st.Semantics.queue.(0) <- [ 1; 2 ]) );
    ( "in_repair in the wrong unit", "does not repair",
      with_ (fun st ->
          st.Semantics.up.(2) <- false;
          st.Semantics.in_repair.(0) <- [ 0; 2 ]) );
    ("operational component queued", "is up", with_ (fun st -> st.Semantics.up.(1) <- true));
    ( "queue longer than the unit lets wait", "can wait",
      with_ (fun st ->
          st.Semantics.up.(3) <- false;
          st.Semantics.in_repair.(0) <- [];
          st.Semantics.queue.(0) <- [ 0; 1; 3 ]) );
  ]

let () =
  Alcotest.run "core"
    [
      ( "explore",
        [
          Alcotest.test_case "chain fingerprints" `Quick test_chain_fingerprints;
          Alcotest.test_case "encode/decode bijection" `Quick test_state_bijection;
          Alcotest.test_case "queue wider than a word" `Quick test_wide_queue;
          Alcotest.test_case "repair sets and costs" `Quick test_repair_sets_and_costs;
          Alcotest.test_case "valid initial state" `Quick test_valid_initial;
        ]
        @ List.map
            (fun (case, fragment, initial) ->
              Alcotest.test_case ("rejects " ^ case) `Quick (fun () ->
                  expect_build_error case fragment initial))
            invalid_initials );
      ( "definitions",
        [
          Alcotest.test_case "component validation" `Quick test_component_validation;
          Alcotest.test_case "repair validation" `Quick test_repair_validation;
          Alcotest.test_case "strategy strings" `Quick test_repair_strategy_strings;
          Alcotest.test_case "priority ranks" `Quick test_repair_ranks;
          Alcotest.test_case "spare activation" `Quick test_spare_activation;
          Alcotest.test_case "model validation" `Quick test_model_validation;
          Alcotest.test_case "service levels" `Quick test_model_service_levels;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "reliability (no repairs)" `Quick
            test_semantics_unrepaired_reliability;
          Alcotest.test_case "dedicated = product form" `Quick
            test_semantics_dedicated_product_form;
          Alcotest.test_case "scheduler invariants" `Quick test_semantics_invariants;
          Alcotest.test_case "single-crew state count" `Quick
            test_semantics_single_crew_counts;
          Alcotest.test_case "disaster queue order" `Quick
            test_semantics_fcfs_queue_order_preserved;
          Alcotest.test_case "frf dispatch order" `Quick test_semantics_frf_dispatch;
          Alcotest.test_case "preemptive state space" `Quick
            test_semantics_preemptive_smaller_space;
          Alcotest.test_case "cold spare dormancy" `Quick
            test_semantics_cold_spare_never_fails_dormant;
          Alcotest.test_case "warm spare rate" `Quick test_semantics_warm_spare_rate;
          Alcotest.test_case "service level per state" `Quick
            test_semantics_service_levels_per_state;
          Alcotest.test_case "cost structure" `Quick test_semantics_cost_structure;
          Alcotest.test_case "bad disaster" `Quick test_disaster_state_unknown_component;
        ] );
      ( "measures",
        [
          Alcotest.test_case "survivability monotone" `Quick
            test_measures_survivability_monotone;
          Alcotest.test_case "survivability at zero" `Quick
            test_measures_survivability_at_zero;
          Alcotest.test_case "cost measures" `Quick test_measures_costs;
          Alcotest.test_case "CSL agreement" `Quick test_measures_csl_agreement;
          Alcotest.test_case "combined availability" `Quick test_combined_availability;
          Alcotest.test_case "mixed disasters" `Quick test_mixed_disasters;
          Alcotest.test_case "two repair units" `Quick test_two_repair_units_product;
        ] );
      ( "erlang-stages",
        [
          Alcotest.test_case "state count" `Quick test_stages_state_count;
          Alcotest.test_case "repair-time distribution" `Quick
            test_stages_repair_distribution;
          Alcotest.test_case "availability invariant" `Quick
            test_stages_availability_invariant;
          Alcotest.test_case "variance effect" `Quick test_stages_less_variance_slower_early;
          Alcotest.test_case "queue strategies + invariants" `Quick
            test_stages_queue_strategy;
          Alcotest.test_case "dedicated two paths" `Quick test_stages_dedicated_two_paths;
          Alcotest.test_case "xml roundtrip" `Quick test_stages_xml_roundtrip;
        ] );
      ( "failure-modes",
        [
          Alcotest.test_case "chain shape" `Quick test_modes_chain_shape;
          Alcotest.test_case "availability closed form" `Quick test_modes_availability;
          Alcotest.test_case "mode literals" `Quick test_modes_specific_literal;
          Alcotest.test_case "validation" `Quick test_modes_validation;
          Alcotest.test_case "mode-aware scheduling" `Quick
            test_modes_scheduling_priority;
          Alcotest.test_case "mode-specific cost" `Quick test_modes_mode_cost;
          Alcotest.test_case "xml roundtrip" `Quick test_modes_xml_roundtrip;
          Alcotest.test_case "prism translation rejected" `Quick
            test_modes_prism_rejected;
          Alcotest.test_case "per-mode importance" `Quick test_modes_importance;
          Alcotest.test_case "example xml file" `Quick test_modes_example_file;
        ] );
      ( "importance",
        [
          Alcotest.test_case "series-parallel closed forms" `Quick
            test_importance_series_parallel;
          Alcotest.test_case "boundary unavailabilities" `Quick test_importance_bounds;
          Alcotest.test_case "mean-time measures" `Quick test_mean_time_measures;
          Alcotest.test_case "degradation scenario" `Quick test_degradation_scenario;
        ] );
      ( "xml",
        [
          Alcotest.test_case "roundtrip" `Quick test_xml_roundtrip;
          Alcotest.test_case "roundtrip through text" `Quick
            test_xml_roundtrip_through_text;
          Alcotest.test_case "spare units" `Quick test_xml_spare_units;
          Alcotest.test_case "schema errors" `Quick test_xml_schema_errors;
          Alcotest.test_case "priority strategy" `Quick test_xml_priority_strategy;
        ] );
      ( "export",
        [
          Alcotest.test_case "fault tree dot" `Quick test_export_fault_tree;
          Alcotest.test_case "model dot" `Quick test_export_model;
          Alcotest.test_case "chain dot" `Quick test_export_chain;
          Alcotest.test_case "size limit" `Quick test_export_chain_too_large;
        ] );
      ( "model-properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_two_paths_agree; prop_measures_sane; prop_survivability_monotone ] );
      ( "to-prism",
        [
          Alcotest.test_case "fcfs agrees" `Quick test_to_prism_fcfs;
          Alcotest.test_case "two crews agree" `Quick test_to_prism_two_crews;
          Alcotest.test_case "dedicated agrees" `Quick test_to_prism_dedicated;
          Alcotest.test_case "frf agrees" `Quick test_to_prism_frf;
          Alcotest.test_case "unrepaired agrees" `Quick test_to_prism_unrepaired;
          Alcotest.test_case "disaster initial state" `Quick
            test_to_prism_disaster_initial;
          Alcotest.test_case "preemptive rejected" `Quick test_to_prism_rejects_preemptive;
          Alcotest.test_case "cold spare rejected" `Quick test_to_prism_rejects_cold_spare;
          Alcotest.test_case "sanitize" `Quick test_sanitize;
          Alcotest.test_case "output parses" `Quick test_to_prism_output_parses;
        ] );
    ]
