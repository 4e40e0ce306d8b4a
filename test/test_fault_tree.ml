(* Tests for fault trees and quantitative service trees: gate semantics,
   duality, cut sets, the string syntax, and the service-level enumeration
   the paper's survivability measure builds on. *)

let ft = Alcotest.testable (Fmt.of_to_string Fault_tree.to_string) Fault_tree.equal

let check_float = Alcotest.(check (float 1e-9))

let b = Fault_tree.basic

(* the paper's Line 2 "total failure" tree *)
let line2_down =
  Fault_tree.or_
    [
      Fault_tree.and_ [ b "st1"; b "st2"; b "st3" ];
      Fault_tree.and_ [ b "sf1"; b "sf2" ];
      b "res";
      Fault_tree.kofn 2 [ b "pump1"; b "pump2"; b "pump3" ];
    ]

let truth_of failed name = List.mem name failed

(* ------------------------------------------------------------------ *)

let test_constructors_validate () =
  Alcotest.check_raises "empty and" (Invalid_argument "Fault_tree.and_: empty gate")
    (fun () -> ignore (Fault_tree.and_ []));
  Alcotest.check_raises "kofn out of range"
    (Invalid_argument "Fault_tree.kofn: k = 3 out of [1, 2]") (fun () ->
      ignore (Fault_tree.kofn 3 [ b "a"; b "b" ]))

let test_eval_gates () =
  let t = line2_down in
  Alcotest.(check bool) "all up" false (Fault_tree.eval t (truth_of []));
  Alcotest.(check bool) "res down" true (Fault_tree.eval t (truth_of [ "res" ]));
  Alcotest.(check bool) "one softener" false (Fault_tree.eval t (truth_of [ "st1" ]));
  Alcotest.(check bool) "all softeners" true
    (Fault_tree.eval t (truth_of [ "st1"; "st2"; "st3" ]));
  Alcotest.(check bool) "one pump ok" false (Fault_tree.eval t (truth_of [ "pump1" ]));
  Alcotest.(check bool) "two pumps down" true
    (Fault_tree.eval t (truth_of [ "pump1"; "pump3" ]))

let test_basics_order () =
  Alcotest.(check (list string)) "first occurrence order"
    [ "st1"; "st2"; "st3"; "sf1"; "sf2"; "res"; "pump1"; "pump2"; "pump3" ]
    (Fault_tree.basics line2_down)

let test_dual_gates () =
  let t = Fault_tree.and_ [ b "a"; Fault_tree.or_ [ b "b"; b "c" ] ] in
  let expected = Fault_tree.or_ [ b "a"; Fault_tree.and_ [ b "b"; b "c" ] ] in
  Alcotest.check ft "and/or swap" expected (Fault_tree.dual t);
  let v = Fault_tree.kofn 2 [ b "a"; b "b"; b "c" ] in
  Alcotest.check ft "kofn dual" (Fault_tree.kofn 2 [ b "a"; b "b"; b "c" ])
    (Fault_tree.dual v);
  let v2 = Fault_tree.kofn 1 [ b "a"; b "b"; b "c" ] in
  Alcotest.check ft "kofn 1-of-3 dual is 3-of-3"
    (Fault_tree.kofn 3 [ b "a"; b "b"; b "c" ])
    (Fault_tree.dual v2)

let test_dual_involution () =
  Alcotest.check ft "dual twice is identity" line2_down
    (Fault_tree.dual (Fault_tree.dual line2_down))

let tree_gen =
  QCheck.Gen.(
    sized_size (int_range 1 4) (fix (fun self n ->
        if n = 0 then map (fun i -> Fault_tree.basic (Printf.sprintf "c%d" i)) (int_range 0 5)
        else
          let sub = self (n - 1) in
          oneof
            [
              map (fun i -> Fault_tree.basic (Printf.sprintf "c%d" i)) (int_range 0 5);
              map (fun l -> Fault_tree.and_ l) (list_size (int_range 1 3) sub);
              map (fun l -> Fault_tree.or_ l) (list_size (int_range 1 3) sub);
              (let* l = list_size (int_range 1 3) sub in
               let* k = int_range 1 (List.length l) in
               return (Fault_tree.kofn k l));
            ])))

(* eval (dual t) f = not (eval t (not . f)) — the duality the service tree
   relies on. *)
let prop_duality =
  QCheck.Test.make ~count:300 ~name:"dual satisfies de morgan duality"
    (QCheck.make (QCheck.Gen.pair tree_gen (QCheck.Gen.int_bound 63)))
    (fun (tree, mask) ->
      let f name =
        (* deterministic pseudo-assignment from the mask *)
        let i = int_of_string (String.sub name 1 (String.length name - 1)) in
        mask land (1 lsl i) <> 0
      in
      Fault_tree.eval (Fault_tree.dual tree) f
      = not (Fault_tree.eval tree (fun name -> not (f name))))

(* the staged evaluators agree with the interpreters, bit for bit *)
let prop_compiled_matches_eval =
  QCheck.Test.make ~count:300 ~name:"compiled trees match eval and eval_quantitative"
    (QCheck.make (QCheck.Gen.pair tree_gen (QCheck.Gen.int_bound 63)))
    (fun (tree, mask) ->
      let bit name mask =
        mask land (1 lsl int_of_string (String.sub name 1 (String.length name - 1))) <> 0
      in
      let value name mask = if bit name mask then 0.25 else 1. in
      Fault_tree.compile tree bit mask = Fault_tree.eval tree (fun name -> bit name mask)
      && Int64.bits_of_float (Fault_tree.compile_quantitative tree value mask)
         = Int64.bits_of_float
             (Fault_tree.eval_quantitative tree (fun name -> value name mask)))

let test_quantitative_gates () =
  let value map name = List.assoc name map in
  let t = Fault_tree.and_ [ b "a"; b "b" ] in
  check_float "ANDq = min" 0.3
    (Fault_tree.eval_quantitative t (value [ ("a", 0.3); ("b", 0.8) ]));
  let t = Fault_tree.or_ [ b "a"; b "b" ] in
  check_float "ORq = avg" 0.55
    (Fault_tree.eval_quantitative t (value [ ("a", 0.3); ("b", 0.8) ]));
  let t = Fault_tree.kofn 2 [ b "a"; b "b"; b "c" ] in
  check_float "KOFNq = min(1, sum/k)" 1.
    (Fault_tree.eval_quantitative t (value [ ("a", 1.); ("b", 1.); ("c", 0.) ]));
  check_float "KOFNq below capacity" 0.5
    (Fault_tree.eval_quantitative t (value [ ("a", 1.); ("b", 0.); ("c", 0.) ]))

let test_service_levels_line2 () =
  (* the paper: Line 2 has service levels {0, 1/3, 1/2, 2/3, 1} *)
  let service = Fault_tree.dual line2_down in
  let levels = Fault_tree.service_levels service in
  Alcotest.(check int) "5 levels" 5 (List.length levels);
  List.iter2
    (fun expected actual -> check_float "level" expected actual)
    [ 0.; 1. /. 3.; 0.5; 2. /. 3.; 1. ]
    levels

let test_service_levels_line1 () =
  let line1_down =
    Fault_tree.or_
      [
        Fault_tree.and_ [ b "st1"; b "st2"; b "st3" ];
        Fault_tree.and_ [ b "sf1"; b "sf2"; b "sf3" ];
        b "res";
        Fault_tree.kofn 2 [ b "pump1"; b "pump2"; b "pump3"; b "pump4" ];
      ]
  in
  let levels = Fault_tree.service_levels (Fault_tree.dual line1_down) in
  (* the paper: spare pumps create no extra service intervals -> {0,1/3,2/3,1} *)
  Alcotest.(check int) "4 levels" 4 (List.length levels);
  List.iter2
    (fun expected actual -> check_float "level" expected actual)
    [ 0.; 1. /. 3.; 2. /. 3.; 1. ]
    levels

let test_minimal_cut_sets () =
  let t =
    Fault_tree.or_
      [ Fault_tree.and_ [ b "a"; b "b" ]; b "c"; Fault_tree.and_ [ b "a"; b "b"; b "d" ] ]
  in
  Alcotest.(check (list (list string)))
    "absorption removes {a,b,d}"
    [ [ "a"; "b" ]; [ "c" ] ]
    (Fault_tree.minimal_cut_sets t)

let test_cut_sets_kofn () =
  let t = Fault_tree.kofn 2 [ b "x"; b "y"; b "z" ] in
  Alcotest.(check (list (list string)))
    "2-of-3 cut sets"
    [ [ "x"; "y" ]; [ "x"; "z" ]; [ "y"; "z" ] ]
    (Fault_tree.minimal_cut_sets t)

let prop_cut_sets_are_sufficient =
  QCheck.Test.make ~count:100 ~name:"every minimal cut set triggers the tree"
    (QCheck.make (QCheck.Gen.return ()))
    (fun () ->
      let t = line2_down in
      List.for_all
        (fun cut -> Fault_tree.eval t (fun name -> List.mem name cut))
        (Fault_tree.minimal_cut_sets t))

let test_minimal_path_sets () =
  (* down = (a and b) or c; path sets: {a, c} and {b, c} *)
  let t = Fault_tree.or_ [ Fault_tree.and_ [ b "a"; b "b" ]; b "c" ] in
  Alcotest.(check (list (list string)))
    "path sets"
    [ [ "a"; "c" ]; [ "b"; "c" ] ]
    (Fault_tree.minimal_path_sets t);
  (* every path set's health forces the tree false *)
  List.iter
    (fun path ->
      Alcotest.(check bool) "keeps system up" false
        (Fault_tree.eval t (fun name -> not (List.mem name path))))
    (Fault_tree.minimal_path_sets t)

let test_string_roundtrip () =
  let s = Fault_tree.to_string line2_down in
  Alcotest.check ft "roundtrip" line2_down (Fault_tree.of_string s)

let test_of_string_examples () =
  Alcotest.check ft "plain or" (Fault_tree.or_ [ b "a"; b "b" ])
    (Fault_tree.of_string "or(a, b)");
  Alcotest.check ft "kofn" (Fault_tree.kofn 2 [ b "a"; b "b"; b "c" ])
    (Fault_tree.of_string "kofn(2, a, b, c)");
  Alcotest.check ft "whitespace"
    (Fault_tree.and_ [ b "x"; b "y" ])
    (Fault_tree.of_string "  and ( x ,  y )  ")

let test_of_string_errors () =
  List.iter
    (fun input ->
      match Fault_tree.of_string input with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail (Printf.sprintf "expected failure on %S" input))
    [ ""; "and()"; "or(a,"; "kofn(x, a)"; "a b" ]

let test_monotonicity () =
  (* failing more components can only decrease quantitative service *)
  let service = Fault_tree.dual line2_down in
  let basics = Fault_tree.basics service in
  let value failed name = if List.mem name failed then 0. else 1. in
  let all_subsets_of_two =
    List.concat_map (fun a -> List.map (fun c -> (a, c)) basics) basics
  in
  List.iter
    (fun (a, c) ->
      let s1 = Fault_tree.eval_quantitative service (value [ a ]) in
      let s2 = Fault_tree.eval_quantitative service (value [ a; c ]) in
      Alcotest.(check bool) "monotone" true (s2 <= s1 +. 1e-12))
    all_subsets_of_two

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "fault_tree"
    [
      ( "boolean",
        [
          Alcotest.test_case "constructor validation" `Quick test_constructors_validate;
          Alcotest.test_case "gate evaluation" `Quick test_eval_gates;
          Alcotest.test_case "basics order" `Quick test_basics_order;
        ] );
      ( "duality",
        [
          Alcotest.test_case "gate swap" `Quick test_dual_gates;
          Alcotest.test_case "involution" `Quick test_dual_involution;
        ]
        @ qsuite [ prop_duality; prop_compiled_matches_eval ] );
      ( "quantitative",
        [
          Alcotest.test_case "gate formulas" `Quick test_quantitative_gates;
          Alcotest.test_case "line 2 service levels" `Quick test_service_levels_line2;
          Alcotest.test_case "line 1 service levels (spares)" `Quick
            test_service_levels_line1;
          Alcotest.test_case "monotone in failures" `Quick test_monotonicity;
        ] );
      ( "cut-sets",
        [
          Alcotest.test_case "absorption" `Quick test_minimal_cut_sets;
          Alcotest.test_case "kofn expansion" `Quick test_cut_sets_kofn;
          Alcotest.test_case "path sets" `Quick test_minimal_path_sets;
        ]
        @ qsuite [ prop_cut_sets_are_sufficient ] );
      ( "syntax",
        [
          Alcotest.test_case "roundtrip" `Quick test_string_roundtrip;
          Alcotest.test_case "examples" `Quick test_of_string_examples;
          Alcotest.test_case "errors" `Quick test_of_string_errors;
        ] );
    ]
