(* The benchmark's own logic: the tail rule, due-time accounting, the
   rate-ladder search and daemon counter deltas. *)

module S = Wtbench.Stats
module Json = Server.Json

let float = Alcotest.float 1e-12

let ramp n = List.init n (fun i -> float_of_int (i + 1))

let test_percentile () =
  let a = S.sorted (ramp 100) in
  Alcotest.check float "p50" 50. (S.percentile a 50.);
  Alcotest.check float "p99" 99. (S.percentile a 99.);
  Alcotest.check float "p100" 100. (S.percentile a 100.);
  Alcotest.check float "median even" 2.5 (S.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.check float "median odd" 2. (S.median [ 3.; 1.; 2. ])

let check_tail name n ~level ~value ~beyond =
  match S.tail (ramp n) with
  | None -> Alcotest.failf "%s: no tail for %d samples" name n
  | Some t ->
      Alcotest.check float (name ^ " level") level t.S.level;
      Alcotest.check float (name ^ " value") value t.value;
      Alcotest.(check int) (name ^ " beyond") beyond t.beyond;
      Alcotest.(check int) (name ^ " samples") n t.samples

let test_tail_rule () =
  (* the highest listed percentile with at least ten samples above it *)
  check_tail "1000" 1000 ~level:99. ~value:990. ~beyond:10;
  check_tail "100" 100 ~level:90. ~value:90. ~beyond:10;
  check_tail "40" 40 ~level:75. ~value:30. ~beyond:10;
  check_tail "20" 20 ~level:50. ~value:10. ~beyond:10;
  Alcotest.(check bool) "19 samples have no tail" true (S.tail (ramp 19) = None);
  Alcotest.(check bool) "none" true (S.tail [] = None)

let req ?(cls = "hot") ?(outcome = S.Ok) ?picked due sent finished =
  { S.cls; due; picked = Option.value picked ~default:due; sent; finished; outcome }

let test_due_time () =
  (* due at 1.0, sent late at 1.2 because both connections were busy,
     answered at 1.25: 250 ms from due, not 50 ms from send *)
  let r = req ~picked:1.19 1.0 1.2 1.25 in
  Alcotest.check float "latency from due" 250. (S.latency_ms r);
  Alcotest.check float "lateness" 200. (S.late_ms r);
  Alcotest.(check (float 1e-9)) "generator's own lateness" 10. (S.gen_late_ms r);
  Alcotest.(check (float 1e-9)) "service time" 50. (S.service_ms r);
  Alcotest.(check (float 1e-9)) "early pick, late send" 5.
    (S.gen_late_ms (req ~picked:0.5 1.0 1.005 1.1));
  let failed = req ~outcome:(S.Failed "refused") 1.0 1.0 1.01 in
  let wrong = req ~outcome:S.Wrong 1.0 1.0 1.01 in
  Alcotest.(check bool) "failure misses every limit" true (S.latency_ms failed = Float.infinity);
  Alcotest.(check bool) "wrong answer misses every limit" true (S.latency_ms wrong = Float.infinity);
  Alcotest.(check int) "errors" 2 (S.errors [ r; failed; wrong ]);
  (match S.class_p50 "hot" [ r; failed; req ~cls:"cold" 0. 0. 9. ] with
  | Some (p50, n) ->
      Alcotest.check float "class p50 over answered" 250. p50;
      Alcotest.(check int) "class count" 1 n
  | None -> Alcotest.fail "no hot p50");
  (* failures sit in the tail as infinite latencies *)
  let rs = List.init 30 (fun i -> req (float_of_int i) (float_of_int i) (float_of_int i +. 0.01)) in
  let rs = rs @ List.init 12 (fun i -> req ~outcome:(S.Failed "timeout") (float_of_int i) 0. 0.) in
  match S.tail (List.map S.latency_ms rs) with
  | Some t -> Alcotest.(check bool) "tail is infinite" true (t.S.value = Float.infinity)
  | None -> Alcotest.fail "no tail"

let steady_run = List.init 60 (fun i -> let t = float_of_int i *. 0.1 in req t t (t +. 0.02))

let growing_run =
  (* each request waits 10 ms longer for a connection than the one before *)
  List.init 60 (fun i ->
      let t = float_of_int i *. 0.1 in
      let sent = t +. (0.01 *. float_of_int i) in
      req ~picked:sent t sent (sent +. 0.02))

let oversleeping_run =
  (* connections are free on time, but the generator wakes later and later *)
  List.init 60 (fun i ->
      let t = float_of_int i *. 0.1 in
      let sent = t +. (0.001 *. float_of_int i) in
      req t sent (sent +. 0.02))

let test_backlog () =
  Alcotest.(check bool) "steady" false (S.backlog_growing steady_run);
  Alcotest.(check bool) "growing" true (S.backlog_growing growing_run);
  Alcotest.(check bool) "queueing is not the generator" false
    (S.generator_falling_behind growing_run);
  Alcotest.(check bool) "generator behind" true (S.generator_falling_behind oversleeping_run);
  Alcotest.(check bool) "generator on time" false (S.generator_falling_behind steady_run);
  Alcotest.(check bool) "steady rung meets" true (S.rung_ok ~limit_ms:100. steady_run);
  Alcotest.(check bool) "limit missed" false (S.rung_ok ~limit_ms:10. steady_run);
  Alcotest.(check bool) "growing rung misses" false (S.rung_ok ~limit_ms:1e9 growing_run);
  let one_failure = req ~outcome:(S.Failed "refused") 0. 0. 0. :: steady_run in
  Alcotest.(check bool) "a failure fails the rung" false (S.rung_ok ~limit_ms:100. one_failure)

let test_ladder () =
  let ladder = [ 4.; 6.; 8.; 12.; 16. ] in
  let tried = ref [] in
  let capacity c rate = tried := rate :: !tried; rate <= c in
  Alcotest.check float "highest passing" 8. (S.ladder_search ladder (capacity 10.));
  Alcotest.(check (list (float 0.))) "stops at first miss" [ 12.; 8.; 6.; 4. ] !tried;
  Alcotest.check float "first misses" 0. (S.ladder_search ladder (capacity 1.));
  Alcotest.check float "all pass" 16. (S.ladder_search ladder (capacity 100.));
  (* a rung above a failing one does not count *)
  Alcotest.check float "not monotone" 4.
    (S.ladder_search ladder (fun r -> r <> 6.))

let test_stats_delta () =
  let before =
    Json.parse
      {|{"sessions": {"hits": 10, "misses": 2}, "analysis": {"mixture_passes": 5},
         "histograms": {"server.latency_ms.analyze": {"total": 3, "sum": 30.5}}}|}
  and after =
    Json.parse
      {|{"sessions": {"hits": 17, "misses": 3, "hit_rate": 0.85}, "analysis": {"mixture_passes": 11},
         "histograms": {"server.latency_ms.analyze": {"total": 9, "sum": 100.0}},
         "server": {"coalesced": 4}}|}
  in
  let d path = S.delta ~before ~after path in
  Alcotest.check float "hits" 7. (d [ "sessions"; "hits" ]);
  Alcotest.check float "passes" 6. (d [ "analysis"; "mixture_passes" ]);
  Alcotest.check float "histogram sum" 69.5 (d [ "histograms"; "server.latency_ms.analyze"; "sum" ]);
  Alcotest.check float "absent before counts from zero" 4. (d [ "server"; "coalesced" ]);
  Alcotest.check float "absent after" 0. (d [ "server"; "requests" ]);
  Alcotest.(check bool) "non-number" true (S.field [ "sessions" ] after = None);
  Alcotest.check float "ratio" 0.5 (S.ratio 1. 2.);
  Alcotest.check float "ratio of nothing" 0. (S.ratio 1. 0.)

let () =
  Alcotest.run "wtbench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentiles" `Quick test_percentile;
          Alcotest.test_case "tail rule" `Quick test_tail_rule;
          Alcotest.test_case "due-time accounting" `Quick test_due_time;
          Alcotest.test_case "backlog and rungs" `Quick test_backlog;
          Alcotest.test_case "ladder search" `Quick test_ladder;
          Alcotest.test_case "stats deltas" `Quick test_stats_delta;
        ] );
    ]
