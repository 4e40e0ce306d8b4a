(* The repository benchmark: three workloads over the paper's tool chain,
   every answer checked, one JSON result line at the end.

     tables  cold Table 1 + Table 2 over the ten shipped models
     curves  the Fig. 3-11 series on chains built in set-up, each
             repetition through fresh analysis sessions (not gated)
     serve   request blocks drained through arcade_serve, plus an
             open-loop mix in traced runs

   Usage: main.exe --workload tables|curves|serve|all --seed N
                   --seconds N --trace 0|1
   With --trace 0 the result line carries the end-to-end metrics, their
   times in reference seconds (see Host); with --trace 1 the per-layer
   metrics, timed around calls into each layer's public functions from
   this file. See README.md. *)

open Core
module Json = Server.Json
module Http = Server.Http
module Analysis = Ctmc.Analysis
module S = Wtbench.Stats

let now () = Int64.to_float (Obs.monotonic_ns ()) /. 1e9

let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

let say fmt = Printf.printf (fmt ^^ "\n%!")

(* ------------------------------------------------------------------ *)
(* Results                                                            *)

type metric = { name : string; value : float; unit_ : string; note : string }

let metric ?(note = "") name unit_ value = { name; value; unit_; note }

type result = {
  metrics : metric list;
  attempted : int;
  failed : int;
}

let print_table title ms =
  say "%s" title;
  List.iter
    (fun m ->
      say "  %-28s %14.6g %-6s %s" m.name m.value m.unit_ m.note)
    ms

let result_json r =
  Json.Obj
    [
      ("correct", Json.Bool (r.failed = 0));
      ("attempted", Json.num (float_of_int r.attempted));
      ("failed", Json.num (float_of_int r.failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun m ->
               ( m.name,
                 Json.Obj [ ("value", Json.num m.value); ("unit", Json.Str m.unit_) ] ))
             r.metrics) );
    ]

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> failwith "no VmHWM line"
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Host speed                                                         *)

(* The memory speed of a shared VM drifts with its neighbours' load, by
   tens of percent within seconds and by up to a factor of two between
   minutes, with next to no steal time; every workload here is
   memory-bound. So the gated times are given in reference seconds: a
   fixed calibration kernel (a pointer chase through a 16 MB random
   cycle that also scatters into an 8 MB table, then random gathers from
   that table) runs between units of work, at least every half second,
   and each unit's measured time is multiplied by [reference_s] over the
   median of the calibrations made within two seconds of it. The
   kernel's arrays are Bigarrays, outside the OCaml heap, and it
   allocates nothing, so neither the workload's heap nor its garbage can
   change what it costs; its inputs come from a fixed seed, not the
   workload seed. Raw times are reported alongside. *)
module Host = struct
  module A = Bigarray.Array1

  (* the kernel's time on a quiet 2-vCPU Xeon VM, so reference seconds
     are about that box's seconds *)
  let reference_s = 0.09

  let cycle_len = 1 lsl 22

  let table_len = 1 lsl 20

  type t = {
    next : (int32, Bigarray.int32_elt, Bigarray.c_layout) A.t;  (** one cycle *)
    table : (float, Bigarray.float64_elt, Bigarray.c_layout) A.t;
    cols : (int32, Bigarray.int32_elt, Bigarray.c_layout) A.t;  (** random slots *)
    mutable samples : (float * float) list;  (** (when it ended, seconds) *)
  }

  let create () =
    let rng = Random.State.make [| 7 |] in
    let next = A.create Bigarray.int32 Bigarray.c_layout cycle_len in
    for i = 0 to cycle_len - 1 do next.{i} <- Int32.of_int i done;
    (* Sattolo's shuffle: a single cycle through every slot *)
    for i = cycle_len - 1 downto 1 do
      let j = Random.State.int rng i in
      let x = next.{i} in
      next.{i} <- next.{j};
      next.{j} <- x
    done;
    let table = A.create Bigarray.float64 Bigarray.c_layout table_len in
    A.fill table 1.;
    let cols = A.create Bigarray.int32 Bigarray.c_layout table_len in
    for k = 0 to table_len - 1 do cols.{k} <- Int32.of_int (Random.State.int rng table_len) done;
    { next; table; cols; samples = [] }

  let kernel t =
    let mask = table_len - 1 in
    let p = ref 0 in
    for _ = 1 to 400_000 do
      let q = Int32.to_int (A.unsafe_get t.next !p) in
      let k = q land mask in
      A.unsafe_set t.table k (A.unsafe_get t.table k +. 1.);
      p := q
    done;
    let s = ref 0. in
    for _ = 1 to 3 do
      for k = 0 to table_len - 1 do
        s := !s +. A.unsafe_get t.table (Int32.to_int (A.unsafe_get t.cols k))
      done
    done;
    !p + Float.to_int !s

  let calibrate t =
    let _, dt = timed (fun () -> Sys.opaque_identity (kernel t)) in
    t.samples <- (now (), dt) :: t.samples

  (* calibrate unless the last calibration is under half a second old *)
  let tick t =
    match t.samples with
    | (at, _) :: _ when now () -. at < 0.5 -> ()
    | _ -> calibrate t

  (* [dt] seconds measured from [start] to [stop], in reference seconds:
     scaled by the calibrations within [window] seconds of the interval,
     or by the nearest one when none is *)
  let window = 2.

  let adjust t ~start ~stop dt =
    let near =
      List.filter_map
        (fun (at, c) -> if at >= start -. window && at <= stop +. window then Some c else None)
        t.samples
    in
    let near =
      if near <> [] then near
      else
        let dist (at, _) = Float.min (Float.abs (at -. start)) (Float.abs (at -. stop)) in
        [ snd (List.fold_left (fun a b -> if dist b < dist a then b else a) (List.hd t.samples) t.samples) ]
    in
    dt *. reference_s /. S.median near

  let metrics t ~raw_wall ~wall ~raw_setup =
    let cals = List.map snd t.samples in
    [
      metric "raw_wall_s" "s" raw_wall ~note:"measured";
      metric "raw_setup_s" "s" raw_setup ~note:"measured";
      metric "host.speed" "ratio" (wall /. raw_wall)
        ~note:
          (Printf.sprintf "reference over measured wall; %d calibrations, median %.4fs for %gs"
             (List.length cals) (S.median cals) reference_s);
    ]
end

(* One timed unit of work: its result, and its time as measured and in
   reference seconds. *)
type 'a sample = { value : 'a; raw : float; adj : float }

(* Run [f] (a [(result, seconds)] pair) between calibrations, [after]
   of them after it when given; the returned thunk makes the sample once
   the calibrations around it exist. *)
let measure ?after cal f =
  Host.tick cal;
  let start = now () in
  let value, raw = f () in
  let stop = now () in
  (match after with
  | None -> Host.tick cal
  | Some n -> for _ = 1 to n do Host.calibrate cal done);
  fun () -> { value; raw; adj = Host.adjust cal ~start ~stop raw }

(* ------------------------------------------------------------------ *)
(* Per-layer ledger for the traced runs                               *)

let ledger : (string, float) Hashtbl.t = Hashtbl.create 32

let bill key x =
  Hashtbl.replace ledger key (x +. Option.value (Hashtbl.find_opt ledger key) ~default:0.)

let get key = Option.value (Hashtbl.find_opt ledger key) ~default:0.

(* Time one call into a layer and bill its seconds and call count. *)
let layer name f =
  let x, dt = timed f in
  bill (name ^ ".s") dt;
  bill (name ^ ".calls") 1.;
  x

let solver_iterations () =
  List.fold_left
    (fun acc (name, v) ->
      if String.length name > 18
         && String.sub name 0 7 = "solver."
         && Filename.extension name = ".iterations"
      then acc + v
      else acc)
    0 (Obs.Metrics.snapshot ()).Obs.Metrics.counters

(* Artifacts a measure call must find cached after the traced run has
   derived them one at a time; a build here is a failed check. *)
let cache_violations = ref 0

let expect_no_builds what before after =
  let b = before and a = after in
  let built =
    a.Analysis.uniformized_builds - b.Analysis.uniformized_builds
    + (a.absorbed_builds - b.absorbed_builds)
    + (a.weight_computes - b.weight_computes)
    + (a.steady_solves - b.steady_solves)
  in
  if built > 0 then begin
    incr cache_violations;
    say "cache check failed: %s rebuilt %d artifact(s)" what built
  end

(* Kernel work of a measure call on one session: steps, stream width and
   the bytes one blocked step reads and writes, computed (not measured)
   as 12 nnz + 4 (n+1) + 16 K n for a width-K step over an n-state CSR
   matrix. *)
let bill_kernel session before after =
  let steps = after.Analysis.mixture_steps - before.Analysis.mixture_steps in
  let passes = after.Analysis.batch_passes - before.Analysis.batch_passes in
  let cols = after.Analysis.batch_columns - before.Analysis.batch_columns in
  if passes > 0 then begin
    let _, p = Analysis.uniformized session in
    let nnz = float_of_int (Numeric.Sparse.nnz p) in
    let n = float_of_int (Numeric.Sparse.rows p) in
    let width = float_of_int cols /. float_of_int passes in
    bill "mixture.passes" (float_of_int passes);
    bill "mixture.steps" (float_of_int steps);
    bill "mixture.columns" (float_of_int cols);
    bill "mixture.nnz_steps" (nnz *. float_of_int steps);
    bill "mixture.bytes"
      (float_of_int steps *. ((12. *. nnz) +. (4. *. (n +. 1.)) +. (16. *. width *. n)))
  end

let layer_metrics ~overhead ~extra =
  let s k = get (k ^ ".s") in
  let per a b = S.ratio (get a) (get b) in
  [
    metric "admission.ms_per_req" "ms" (1000. *. per "admission.s" "admission.reqs");
    metric "admission.s" "s" (s "admission");
    metric "build.s" "s" (s "build");
    metric "build.calls" "count" (get "build.calls");
    metric "build.states_per_s" "1/s" (S.ratio (get "build.states") (s "build"));
    metric "build.alloc_bytes_per_state" "B" (per "build.alloc_bytes" "build.states");
    metric "label.s" "s" (s "label");
    metric "label.ns_per_state" "ns" (1e9 *. per "label.s" "label.states");
    metric "steady.s" "s" (s "steady");
    metric "steady.solves" "count" (get "steady.solves");
    metric "solver.iterations" "count" (get "solver.iterations");
    metric "derive.s" "s" (s "derive");
    metric "derive.builds" "count" (get "derive.builds");
    metric "weights.s" "s" (s "weights");
    metric "weights.computes" "count" (get "weights.computes");
    metric "weights.hit_ratio" "ratio"
      (S.ratio (get "weights.hits") (get "weights.hits" +. get "weights.computes"));
    metric "mixture.s" "s" (s "mixture");
    metric "mixture.passes" "count" (get "mixture.passes");
    metric "mixture.steps" "count" (get "mixture.steps");
    metric "mixture.width" "count" (per "mixture.columns" "mixture.passes");
    metric "mixture.nnz_steps_per_s" "1/s" (S.ratio (get "mixture.nnz_steps") (s "mixture"));
    metric "mixture.gb_per_s_computed" "GB/s"
      (S.ratio (get "mixture.bytes") (s "mixture") /. 1e9);
    metric "measure.s" "s" (s "measure");
    metric "trace.overhead" "ratio" overhead;
  ]
  @ extra

(* Metrics only the serve workload can measure; the traced runs of the
   other workloads report them as 0, so every traced run prints the same
   set. *)
let daemon_units =
  [
    ("session.hit_ratio", "ratio");
    ("coalesced_share", "ratio");
    ("sweeps_per_suite_req", "count");
    ("server.wait_ms", "ms");
    ("gen.late_ms", "ms");
    ("sustained_rps", "1/s");
    ("p50_ms", "ms");
    ("hot_p50_ms", "ms");
    ("cold_p50_ms", "ms");
    ("suite_p50_ms", "ms");
    ("tail_ms", "ms");
  ]

let daemon_metrics measured =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun m -> m.name = name) measured with
      | Some m -> m
      | None -> metric name unit_ 0.)
    daemon_units

(* ------------------------------------------------------------------ *)
(* Small helpers                                                      *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let model_of_source src =
  let xml, locator = Xml_kit.parse_string_located src in
  fst (Xml_io.of_xml ~pos:locator xml)

(* A fresh session over an already built chain: every derived artifact
   (uniformized and absorbed chains, Fox-Glynn weights, steady state) is
   paid again. *)
let fresh m = { m with Measures.analysis = Analysis.create (Measures.built m).Semantics.chain }

let close_to ?(tol = 1e-9) expected got =
  Float.abs (got -. expected) <= tol *. Float.max 1. (Float.abs expected)

let grid horizon points =
  List.init points (fun i -> horizon *. float_of_int i /. float_of_int (points - 1))

(* The units of one repetition, in turn: one full round, then more while
   the next unit, at its last length, still fits in [seconds]. [f] gives
   a [(result, seconds)] pair. Each round starts from a full major
   collection. Returns every sample of each unit, oldest first. *)
let rounds ~cal ~seconds units f =
  let n = Array.length units in
  let samples = Array.make n [] in
  let lengths = Array.make n 0. in
  let t0 = now () in
  let rec go i round =
    if i = n then go 0 (round + 1)
    else if round > 0 && now () -. t0 +. lengths.(i) > seconds then ()
    else begin
      if i = 0 then Gc.full_major ();
      let start = now () in
      samples.(i) <- measure cal (fun () -> f units.(i)) :: samples.(i);
      lengths.(i) <- now () -. start;
      go (i + 1) round
    end
  in
  go 0 0;
  Array.map (fun s -> List.rev_map (fun make -> make ()) s) samples

(* One repetition's time from the samples of its units: the sum of the
   units' medians, so a slow moment spoils one sample, not the figure. *)
let sum_of_medians time samples =
  Array.fold_left (fun acc s -> acc +. S.median (List.map time s)) 0. samples

let sample_counts samples =
  let counts = Array.to_list (Array.map List.length samples) in
  Printf.sprintf "%d-%d samples each" (List.fold_left min max_int counts)
    (List.fold_left max 0 counts)

(* Set up [times] times and keep only the last result; each earlier one
   is [discard]ed before the next set-up starts. Returns the result and
   the median set-up time, measured and in reference seconds. *)
let median_setup ?(discard = ignore) ?after ~cal ~times f =
  let rec go k acc =
    Gc.full_major ();
    let make = measure ?after cal (fun () -> timed f) in
    if k = times then begin
      let samples = List.map (fun make -> make ()) (make :: acc) in
      ( (List.hd samples).value,
        S.median (List.map (fun s -> s.raw) samples),
        S.median (List.map (fun s -> s.adj) samples) )
    end
    else begin
      discard (make ()).value;
      go (k + 1) (make :: acc)
    end
  in
  go 1 []

(* ------------------------------------------------------------------ *)
(* Workload: tables                                                   *)

(* Table 1 (states, transitions) and Table 2 (availability) as measured
   in EXPERIMENTS.md. *)
let table_reference =
  [
    ("line1_ded", (2048, 22528, 0.7442018));
    ("line1_frf-1", (111809, 469007, 0.7217089));
    ("line1_frf-2", (178606, 895331, 0.7438833));
    ("line1_fff-1", (111809, 469007, 0.7216277));
    ("line1_fff-2", (178606, 895331, 0.7438898));
    ("line2_ded", (512, 4608, 0.8186317));
    ("line2_frf-1", (8129, 32029, 0.8098297));
    ("line2_frf-2", (11956, 56013, 0.8186220));
    ("line2_fff-1", (8129, 32029, 0.8098037));
    ("line2_fff-2", (11956, 56013, 0.8186221));
  ]

let model_path name = Filename.concat "models" (name ^ ".xml")

let row_ok name (states, trans, avail) (states', trans', avail') =
  let ok = states = states' && trans = trans' && Float.abs (avail -. avail') <= 1e-7 in
  if not ok then
    say "wrong answer: %s: %d states, %d transitions, availability %.9f \
         (expected %d, %d, %.7f)" name states' trans' avail' states trans avail;
  ok

(* One model of the cold pass: load, lint, build, count, solve. *)
let tables_unit (name, reference) =
  timed (fun () ->
      let model, _ = Xml_io.load (model_path name) in
      let clean = not (Lint.has_errors (Lint.lint_file (model_path name))) in
      let m = Measures.analyze model in
      let chain = (Measures.built m).Semantics.chain in
      let got =
        (Ctmc.Chain.states chain, Ctmc.Chain.transition_count chain, Measures.availability m)
      in
      clean && row_ok name reference got)

(* The same pass, one layer at a time. *)
let tables_traced_pass () =
  List.map
    (fun (name, reference) ->
      let model =
        layer "admission" (fun () ->
            let model, _ = Xml_io.load (model_path name) in
            ignore (Lint.lint_file (model_path name));
            model)
      in
      bill "admission.reqs" 1.;
      let alloc0 = Gc.allocated_bytes () in
      let built = layer "build" (fun () -> Semantics.build model) in
      let chain = built.Semantics.chain in
      let n = Ctmc.Chain.states chain in
      bill "build.alloc_bytes" (Gc.allocated_bytes () -. alloc0);
      bill "build.states" (float_of_int n);
      let analysis = Analysis.create chain in
      let m =
        { Measures.built; analysis; csl = Csl.Checker.of_chain ~analysis chain; lump = false }
      in
      let full = Semantics.service_at_least built 1. in
      ignore (layer "label" (fun () -> Array.init n full));
      bill "label.states" (float_of_int n);
      let it0 = solver_iterations () in
      ignore (layer "steady" (fun () -> Ctmc.Steady_state.solve ~analysis chain));
      bill "solver.iterations" (float_of_int (solver_iterations () - it0));
      bill "steady.solves" (float_of_int (Analysis.stats analysis).steady_solves);
      let before = Analysis.stats analysis in
      let avail = layer "measure" (fun () -> Measures.availability m) in
      expect_no_builds name before (Analysis.stats analysis);
      row_ok name reference (n, Ctmc.Chain.transition_count chain, avail))
    table_reference

(* The gated figures of a workload: times in reference seconds, the raw
   ones next to them in the printed table. *)
let end_to_end ~wall ~raw_wall ~wall_note ~setup ~raw_setup ~setup_note ~rss ~rss_note =
  [
    metric "wall_s" "s" wall
      ~note:(Printf.sprintf "%s; reference seconds, raw %.3fs" wall_note raw_wall);
    metric "setup_s" "s" setup
      ~note:(Printf.sprintf "%s; reference seconds, raw %.3fs" setup_note raw_setup);
    metric "peak_rss_mb" "MB" rss ~note:rss_note;
  ]

let tables ~seconds ~trace =
  let cal = Host.create () in
  Host.calibrate cal;
  (* set-up: read the ten sources and check they lint clean and parse;
     a few tens of milliseconds, so the median of many *)
  let (), raw_setup, setup =
    median_setup ~cal ~times:41 (fun () ->
        List.iter
          (fun (name, _) ->
            let path = model_path name in
            let src = read_file path in
            if Lint.has_errors (Lint.lint_string ~file:path src) then
              failwith (path ^ " does not lint clean");
            ignore (model_of_source src))
          table_reference)
  in
  let samples = rounds ~cal ~seconds (Array.of_list table_reference) tables_unit in
  let rows = List.concat_map (List.map (fun s -> s.value)) (Array.to_list samples) in
  let attempted = List.length rows in
  let failed = List.length (List.filter not rows) in
  let raw_wall = sum_of_medians (fun s -> s.raw) samples in
  let wall = sum_of_medians (fun s -> s.adj) samples in
  let e2e =
    end_to_end ~wall ~raw_wall
      ~wall_note:("cold pass: sum of per-model medians, " ^ sample_counts samples)
      ~setup ~raw_setup ~setup_note:"median of 41 reads, lints and parses"
      ~rss:(peak_rss_mb "self") ~rss_note:"benchmark VmHWM"
  in
  let error_rate = S.ratio (float_of_int failed) (float_of_int attempted) in
  print_table "tables: end-to-end" (e2e @ [ metric "error_rate" "ratio" error_rate ]);
  if not trace then { metrics = e2e; attempted; failed }
  else begin
    Obs.Metrics.set_enabled true;
    Gc.full_major ();
    let oks, traced_wall = timed tables_traced_pass in
    let failed = failed + List.length (List.filter not oks) + !cache_violations in
    let attempted = attempted + List.length oks in
    let error_rate = S.ratio (float_of_int failed) (float_of_int attempted) in
    let overhead = traced_wall /. raw_wall in
    let layers =
      layer_metrics ~overhead
        ~extra:
          (daemon_metrics []
          @ Host.metrics cal ~raw_wall ~wall ~raw_setup
          @ [ metric "error_rate" "ratio" error_rate ])
    in
    print_table "tables: per layer (traced pass)" layers;
    let share k = get (k ^ ".s") /. traced_wall in
    let largest =
      List.for_all
        (fun k -> get "build.s" >= get (k ^ ".s"))
        [ "admission"; "label"; "steady"; "derive"; "weights"; "mixture"; "measure" ]
    in
    say "prediction: build is the largest layer (%.0f%% of the pass): %s"
      (100. *. share "build") (if largest then "holds" else "does not hold");
    say "prediction: derive + weights + mixture are zero: %s"
      (if get "derive.s" +. get "weights.s" +. get "mixture.s" = 0. then "holds"
       else "does not hold");
    { metrics = layers; attempted; failed }
  end

(* ------------------------------------------------------------------ *)
(* Workload: curves                                                   *)

type series =
  | Reliability of float  (** horizon *)
  | Survivability of float * float  (** service level, horizon *)
  | Inst_cost of float
  | Acc_cost of float
  | Cost_pair of float  (** both cost curves from one blocked sweep *)

type chain_spec = {
  id : string;
  model : Model.t;
  initial : Semantics.state option;
  series : series list;
}

let points = 25

let third = 1. /. 3.

let two_thirds = 2. /. 3.

let chain_specs () =
  let open Watertreatment in
  let reliability line =
    {
      id = Facility.line_name line ^ "/reliability";
      model = Facility.reliability_model line;
      initial = None;
      series = [ Reliability 1000. ];
    }
  in
  let after line failed config series =
    let model = Facility.line_model line config in
    {
      id = Printf.sprintf "%s/%s/disaster" (Facility.line_name line) (Facility.config_name config);
      model;
      initial = Some (Semantics.disaster_state model ~failed);
      series;
    }
  in
  let d1 = after Facility.Line1 (Facility.disaster1 Facility.Line1) in
  let d2 = after Facility.Line2 Facility.disaster2 in
  let line1 = [ Survivability (third, 4.5); Survivability (two_thirds, 4.5); Inst_cost 4.5; Acc_cost 10. ] in
  let line2 = [ Survivability (third, 100.); Survivability (two_thirds, 100.) ] in
  [ reliability Facility.Line1; reliability Facility.Line2 ]
  @ List.map (fun c -> d1 c line1) [ Facility.ded; Facility.frf 1; Facility.frf 2 ]
  @ [ d2 Facility.ded line2 ]
  @ List.map
      (fun c -> d2 c (line2 @ [ Cost_pair 50. ]))
      [ Facility.fff 1; Facility.fff 2; Facility.frf 1; Facility.frf 2 ]

let series_points m = function
  | Reliability h -> [ Measures.reliability_curve m ~times:(grid h points) ]
  | Survivability (level, h) ->
      [ Measures.survivability_curve m ~service_level:level ~times:(grid h points) ]
  | Inst_cost h -> [ Measures.instantaneous_cost_curve m ~times:(grid h points) ]
  | Acc_cost h -> [ Measures.accumulated_cost_curve m ~times:(grid h points) ]
  | Cost_pair h ->
      let inst, acc = Measures.cost_curves m ~times:(grid h points) in
      [ inst; acc ]

(* The CSL text of the last point of each curve of a series, and how to
   read the curve's value from the query's. *)
let recheck_queries (m : Measures.t) series =
  let label level =
    let levels = Model.service_levels (Measures.built m).Semantics.model in
    let rec find i = function
      | [] -> failwith "unknown service level"
      | l :: rest -> if Float.abs (l -. level) < 1e-9 then i else find (i + 1) rest
    in
    Printf.sprintf "sl_ge_%d" (find 0 levels)
  in
  match series with
  | Reliability h -> [ (Printf.sprintf "P=? [ true U<=%g !\"full_service\" ]" h, fun v -> 1. -. v) ]
  | Survivability (level, h) ->
      [ (Printf.sprintf "P=? [ true U<=%g \"%s\" ]" h (label level), Fun.id) ]
  | Inst_cost h -> [ (Printf.sprintf "R{\"cost\"}=? [ I=%g ]" h, Fun.id) ]
  | Acc_cost h -> [ (Printf.sprintf "R{\"cost\"}=? [ C<=%g ]" h, Fun.id) ]
  | Cost_pair h ->
      [
        (Printf.sprintf "R{\"cost\"}=? [ I=%g ]" h, Fun.id);
        (Printf.sprintf "R{\"cost\"}=? [ C<=%g ]" h, Fun.id);
      ]

(* Every curve of one chain, through a fresh session. *)
let curves_unit (spec, m0) =
  let m = fresh m0 in
  timed (fun () -> List.concat_map (series_points m) spec.series)

(* The same pass, one layer at a time: label sets, then the absorbed and
   uniformized chains, then the Fox-Glynn weights, and only then the
   measure call, which must find all of them cached. *)
let curves_traced_pass chains =
  List.concat_map
    (fun (spec, m0) ->
      let m = fresh m0 in
      let built = Measures.built m in
      let a = m.Measures.analysis in
      let n = Ctmc.Chain.states built.Semantics.chain in
      List.concat_map
        (fun s ->
          let target =
            match s with
            | Reliability _ -> Some (fun st -> not (Semantics.service_at_least built 1. st))
            | Survivability (level, _) -> Some (Semantics.service_at_least built level)
            | Inst_cost _ | Acc_cost _ | Cost_pair _ -> None
          in
          let horizon =
            match s with
            | Reliability h | Survivability (_, h) | Inst_cost h | Acc_cost h | Cost_pair h -> h
          in
          let session =
            match target with
            | Some pred ->
                (* one evaluation over all states for label.s; the
                   absorbed chain gets the predicate itself, as the
                   measure would, so the evaluations it makes per
                   transition stay in derive.s *)
                ignore (layer "label" (fun () -> Array.init n pred));
                bill "label.states" (float_of_int n);
                let before = Analysis.stats a in
                let sub = layer "derive" (fun () -> Analysis.absorbed a ~pred) in
                ignore (layer "derive" (fun () -> Analysis.uniformized sub));
                bill "derive.builds"
                  (float_of_int
                     ((Analysis.stats a).absorbed_builds - before.absorbed_builds
                     + (Analysis.stats sub).uniformized_builds));
                sub
            | None ->
                ignore (layer "label" (fun () -> Semantics.cost_structure built));
                bill "label.states" (float_of_int n);
                let before = (Analysis.stats a).uniformized_builds in
                ignore (layer "derive" (fun () -> Analysis.uniformized a));
                bill "derive.builds" (float_of_int ((Analysis.stats a).uniformized_builds - before));
                a
          in
          let w0 = Analysis.stats session in
          layer "weights" (fun () ->
              List.iter
                (fun t -> if t > 0. then ignore (Analysis.weights session t))
                (grid horizon points));
          let w1 = Analysis.stats session in
          bill "weights.computes" (float_of_int (w1.weight_computes - w0.weight_computes));
          let a0 = Analysis.stats a in
          let curves = layer "mixture" (fun () -> series_points m s) in
          let s1 = Analysis.stats session in
          expect_no_builds spec.id w1 s1;
          expect_no_builds spec.id a0 (Analysis.stats a);
          bill "weights.hits" (float_of_int (s1.weight_hits - w1.weight_hits));
          bill_kernel session w1 s1;
          List.map (fun c -> (spec.id, c)) curves)
        spec.series)
    chains

let curves ~seconds ~trace =
  let cal = Host.create () in
  Host.calibrate cal;
  let specs = chain_specs () in
  let chains, raw_setup, setup =
    median_setup ~cal ~times:2 (fun () ->
        List.map (fun spec -> (spec, Measures.analyze ?initial:spec.initial spec.model)) specs)
  in
  let samples = rounds ~cal ~seconds (Array.of_list chains) curves_unit in
  (* each chain's first curves are the reference: every later repetition
     (and the traced pass) must reproduce them *)
  let reference = Array.map (fun s -> (List.hd s).value) samples in
  let same a b = List.for_all2 (fun (t, x) (t', y) -> t = t' && close_to ~tol:1e-12 x y) a b in
  let mismatches reference curves =
    List.length (List.filter not (List.map2 same reference curves))
  in
  let rep_failures =
    Array.fold_left ( + ) 0
      (Array.mapi
         (fun i s -> List.fold_left (fun acc x -> acc + mismatches reference.(i) x.value) 0 s)
         samples)
  in
  (* one point per curve rechecked through the CSL checker *)
  let recheck_failures =
    List.fold_left ( + ) 0
      (List.mapi
         (fun i (spec, m0) ->
           let queries = List.concat_map (recheck_queries m0) spec.series in
           let ours = List.map (fun c -> snd (List.nth c (points - 1))) reference.(i) in
           List.fold_left2
             (fun acc (q, read) v ->
               match Csl.Checker.check_string (Measures.to_csl_model m0) q with
               | Csl.Checker.Value x when close_to v (read x) -> acc
               | _ ->
                   say "wrong answer: %s: %s disagrees with the curve (%.12g)" spec.id q v;
                   acc + 1)
             0 queries ours)
         chains)
  in
  let curve_count = Array.fold_left (fun acc c -> acc + List.length c) 0 reference in
  let attempted =
    curve_count
    + Array.fold_left
        (fun acc s -> acc + List.fold_left (fun acc x -> acc + List.length x.value) 0 s)
        0 samples
  in
  let failed = recheck_failures + rep_failures in
  let raw_wall = sum_of_medians (fun s -> s.raw) samples in
  let wall = sum_of_medians (fun s -> s.adj) samples in
  let e2e =
    end_to_end ~wall ~raw_wall
      ~wall_note:
        (Printf.sprintf "fresh-session pass of %d curves x %d points: sum of per-chain medians, %s"
           curve_count points (sample_counts samples))
      ~setup ~raw_setup ~setup_note:"median of 2 builds of 10 chains"
      ~rss:(peak_rss_mb "self") ~rss_note:"benchmark VmHWM"
  in
  let error_rate = S.ratio (float_of_int failed) (float_of_int attempted) in
  print_table "curves: end-to-end" (e2e @ [ metric "error_rate" "ratio" error_rate ]);
  if not trace then { metrics = e2e; attempted; failed }
  else begin
    Obs.Metrics.set_enabled true;
    Gc.full_major ();
    let traced, traced_wall = timed (fun () -> curves_traced_pass chains) in
    let failed =
      failed
      + mismatches (List.concat (Array.to_list reference)) (List.map snd traced)
      + !cache_violations
    in
    let attempted = attempted + List.length traced in
    let error_rate = S.ratio (float_of_int failed) (float_of_int attempted) in
    let overhead = traced_wall /. raw_wall in
    let layers =
      layer_metrics ~overhead
        ~extra:
          (daemon_metrics []
          @ Host.metrics cal ~raw_wall ~wall ~raw_setup
          @ [ metric "error_rate" "ratio" error_rate ])
    in
    print_table "curves: per layer (traced pass)" layers;
    let kernel = get "derive.s" +. get "weights.s" +. get "mixture.s" in
    let others = get "admission.s" +. get "build.s" +. get "label.s" +. get "steady.s" in
    say "prediction: build is under 5%% of the timed work (%.1f%%): %s"
      (100. *. get "build.s" /. traced_wall)
      (if get "build.s" < 0.05 *. traced_wall then "holds" else "does not hold");
    say "prediction: derive + weights + mixture are the largest layers (%.0f%% vs %.0f%%): %s"
      (100. *. kernel /. traced_wall) (100. *. others /. traced_wall)
      (if kernel > others then "holds" else "does not hold");
    { metrics = layers; attempted; failed }
  end

(* ------------------------------------------------------------------ *)
(* Workload: serve                                                    *)

let hot_queries =
  [ "S=? [ \"full_service\" ]"; "S=? [ \"operational\" ]"; "R{\"cost\"}=? [ S ]" ]

let suite_queries =
  [
    "S=? [ \"full_service\" ]";
    "S=? [ \"operational\" ]";
    "P=? [ true U<=1000 !\"full_service\" ]";
    "R{\"cost\"}=? [ C<=1000 ]";
    "R{\"cost\"}=? [ I=1000 ]";
  ]

(* the daemon's sweeps per suite request without batching: the bounded
   until plus one per reward operator *)
let naive_sweeps_per_suite = 3.

let line2_bases = [| "line2_ded"; "line2_frf-1"; "line2_frf-2"; "line2_fff-1"; "line2_fff-2" |]

(* Every mttf scaled by [factor]: same structure and state count, a
   distinct source and so a distinct daemon session. *)
let scale_mttf factor src =
  let rec go = function
    | Xml_kit.Element (name, attrs, children) ->
        let attrs =
          List.map
            (fun (k, v) ->
              match float_of_string_opt v with
              | Some x when k = "mttf" -> (k, Printf.sprintf "%.6f" (x *. factor))
              | _ -> (k, v))
            attrs
        in
        Xml_kit.Element (name, attrs, List.map go children)
    | Xml_kit.Text _ as t -> t
  in
  Xml_kit.to_string (go (Xml_kit.parse_string src))

type variant = {
  base : string;
  src : string;
  expected : float array Lazy.t;  (** forced before the phase that sends it *)
  queries : string list;
}

let body v =
  Json.to_string
    (Json.Obj
       [
         ("model", Json.Str v.src);
         ("queries", Json.List (List.map (fun q -> Json.Str q) v.queries));
       ])

(* Reference answers from the in-process measures. *)
let expected_values queries m =
  Array.of_list
    (List.map
       (function
         | "S=? [ \"full_service\" ]" -> Measures.availability m
         | "S=? [ \"operational\" ]" -> Measures.any_service_availability m
         | "R{\"cost\"}=? [ S ]" -> Measures.steady_state_cost m
         | "P=? [ true U<=1000 !\"full_service\" ]" -> Measures.unreliability m ~time:1000.
         | "R{\"cost\"}=? [ C<=1000 ]" -> Measures.accumulated_cost m ~time:1000.
         | "R{\"cost\"}=? [ I=1000 ]" -> Measures.instantaneous_cost m ~time:1000.
         | q -> invalid_arg q)
       queries)

type planned = { due : float; cls : string; v : variant }

type plan = {
  hot : variant array;
  suite : variant array;
  drain : planned list list;
      (** blocks sent back to back for wall_s, as many as fit in [seconds] *)
  open_loop : planned list;  (** traced runs only: whole blocks at [base_rate] *)
  ladder : (float * planned list) list;  (** traced runs only *)
}

(* well below the daemon's capacity on a 2-core box (see the ladder), so
   the open-loop latencies are service times plus light queueing *)
let base_rate = 2.

let ladder_rates = [ 2.; 3.; 4.; 6.; 8.; 12. ]

let tail_limit_ms = 500.

(* about how long one drain block takes on a 2-vCPU VM *)
let drain_block_s = 5.

(* A seeded mix in blocks of 36 requests: 25 hot, 5 cold and 6 suite
   sent as 3 same-model pairs due at one instant, shuffled within the
   block. Each element is one arrival: one request, or a suite pair. Hot
   and cold requests take the five Line 2 bases in turn and each suite
   variant sends one pair, so every block holds the same work. *)
let block_requests = 36

let block rng ~hot ~suite ~cold =
  let events =
    Array.of_list
      (List.init 25 (fun _ -> `Hot)
      @ List.init 5 (fun _ -> `Cold)
      @ List.init (Array.length suite) (fun i -> `Suite suite.(i)))
  in
  for i = Array.length events - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = events.(i) in
    events.(i) <- events.(j);
    events.(j) <- x
  done;
  List.map
    (function
      | `Hot -> [ ("hot", hot ()) ]
      | `Cold -> [ ("cold", cold ()) ]
      | `Suite v -> [ ("suite", v); ("suite", v) ])
    (Array.to_list events)

(* Exponential gap between arrivals for [rate] requests per second (36
   requests per 33 arrivals). *)
let gap rng rate = -.Float.log (1. -. Random.State.float rng 1.) /. (rate *. 33. /. 36.)

let timed_arrivals rng ~rate arrivals =
  let t = ref 0. in
  List.concat_map
    (fun arrival ->
      t := !t +. gap rng rate;
      List.map (fun (cls, v) -> { due = !t; cls; v }) arrival)
    arrivals

let make_plan ~seed ~seconds ~trace =
  let rng = Random.State.make [| seed |] in
  let sources = Array.map (fun b -> read_file (model_path b)) line2_bases in
  let variant queries i =
    (* within 5% of the shipped rates, as arcade_load's portfolio steps *)
    let factor = 0.95 +. Random.State.float rng 0.1 in
    let base = line2_bases.(i) in
    let src = scale_mttf factor sources.(i) in
    let expected = lazy (expected_values queries (Measures.analyze (model_of_source src))) in
    { base; src; expected; queries }
  in
  let resident = Array.init (Array.length line2_bases) (variant hot_queries) in
  (* three suite variants on one base, a pair of each per block *)
  let suite = Array.init 3 (fun _ -> variant suite_queries 1) in
  Array.iter (fun v -> ignore (Lazy.force v.expected)) (Array.append resident suite);
  let in_turn f =
    let k = ref (-1) in
    fun () -> incr k; f (!k mod Array.length line2_bases)
  in
  let hot = in_turn (Array.get resident) in
  let cold = in_turn (variant hot_queries) in
  (* drain blocks, each sent back to back: one per [drain_block_s] of
     [seconds], at least two; two in traced runs, which spend their time
     on the open loop and the ladder *)
  let drain =
    List.init
      (if trace then 2 else max 2 (Float.to_int (seconds /. drain_block_s)))
      (fun _ -> List.concat_map (List.map (fun (cls, v) -> { due = 0.; cls; v })) (block rng ~hot ~suite ~cold))
  in
  let blocks =
    max 1 (Float.to_int (Float.round (seconds *. base_rate /. float_of_int block_requests)))
  in
  let open_loop, ladder =
    if trace then
      ( timed_arrivals rng ~rate:base_rate
          (List.concat (List.init blocks (fun _ -> block rng ~hot ~suite ~cold))),
        List.map
          (fun rate -> (rate, timed_arrivals rng ~rate (block rng ~hot ~suite ~cold)))
          ladder_rates )
    else ([], [])
  in
  { hot = resident; suite; drain; open_loop; ladder }

(* -- the daemon as a child process -- *)

type daemon = { pid : int; port : int; out : in_channel }

let serve_exe () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "arcade_serve.exe")

let start_daemon () =
  let exe = serve_exe () in
  if not (Sys.file_exists exe) then failwith (exe ^ " is not built");
  let r, w = Unix.pipe ~cloexec:true () in
  let env =
    Array.of_list
      (List.filter
         (fun kv ->
           not
             (List.exists
                (fun p -> String.starts_with ~prefix:p kv)
                [ "OBS_"; "SERVER_"; "LUMP="; "PAR_DOMAINS=" ]))
         (Array.to_list (Unix.environment ())))
  in
  let pid =
    Unix.create_process_env exe
      [| exe; "--port"; "0"; "--domains"; "2"; "--batch-window-ms"; "5" |]
      env Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let out = Unix.in_channel_of_descr r in
  match Scanf.sscanf (input_line out) "arcade_serve: listening on %_[0-9.]:%d" Fun.id with
  | port -> { pid; port; out }
  | exception e ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      close_in_noerr out;
      raise e

let host = "127.0.0.1"

let get_json d path =
  match Http.request ~host ~port:d.port ~meth:"GET" ~path () with
  | 200, body -> Json.parse body
  | status, _ -> failwith (Printf.sprintf "%s answered %d" path status)

let stop_daemon d =
  (try ignore (Http.request ~host ~port:d.port ~meth:"POST" ~path:"/shutdown" ())
   with Unix.Unix_error _ | End_of_file | Http.Bad_request _ -> Unix.kill d.pid Sys.sigkill);
  ignore (Unix.waitpid [] d.pid);
  close_in_noerr d.out

(* Check one answer against the reference values. *)
let check_answer v (status, resp) =
  if status <> 200 then S.Failed (Printf.sprintf "HTTP %d" status)
  else
    match Json.list_field "results" (Json.parse resp) with
    | Some results when List.length results = Array.length (Lazy.force v.expected) ->
        if
          List.for_all2
            (fun r x ->
              match Json.member "value" r with
              | Some (Json.Num y) -> close_to x y
              | _ -> false)
            results (Array.to_list (Lazy.force v.expected))
        then S.Ok
        else S.Wrong
    | _ -> S.Wrong
    | exception Json.Parse_error m -> S.Failed m

(* Send the planned requests from [connections] keep-alive connections,
   each request no earlier than its due time (closed loop when every due
   time is 0); times are seconds from the start of the phase. Answers are
   checked after the phase, so computing the reference answers of never-
   seen variants neither delays a send nor competes with the daemon. The
   watchdog kills the daemon if the phase overruns, so every outstanding
   request fails instead of hanging the benchmark. *)
let run_requests ?(connections = 2) d plan ~deadline =
  let reqs = Array.of_list plan in
  let n = Array.length reqs in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let t0 = now () +. 0.02 in
  let sender () =
    let client = ref None in
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let r = reqs.(i) in
        let picked = now () -. t0 in
        let wait = t0 +. r.due -. now () in
        if wait > 0. then Thread.delay wait;
        let sent = now () -. t0 in
        let answer =
          try
            let c =
              match !client with
              | Some c -> c
              | None ->
                  let c = Http.connect ~host ~port:d.port in
                  client := Some c;
                  c
            in
            Ok (Http.call c ~meth:"POST" ~path:"/analyze" ~body:(body r.v) ())
          with (Unix.Unix_error _ | End_of_file | Http.Bad_request _) as e ->
            Option.iter Http.close !client;
            client := None;
            Error (Printexc.to_string e)
        in
        results.(i) <- Some (r, picked, sent, now () -. t0, answer);
        loop ()
      end
    in
    loop ();
    Option.iter Http.close !client
  in
  let finished = Atomic.make false in
  let watchdog =
    Thread.create
      (fun () ->
        while (not (Atomic.get finished)) && now () < deadline do
          Thread.delay 0.05
        done;
        if not (Atomic.get finished) then Unix.kill d.pid Sys.sigkill)
      ()
  in
  let senders = List.init connections (fun _ -> Thread.create sender ()) in
  List.iter Thread.join senders;
  Atomic.set finished true;
  Thread.join watchdog;
  List.map
    (fun x ->
      let r, picked, sent, finished, answer = Option.get x in
      let outcome =
        match answer with Ok a -> check_answer r.v a | Error m -> S.Failed m
      in
      { S.cls = r.cls; due = r.due; picked; sent; finished; outcome })
    (Array.to_list results)

(* The reference computation for one variant, one layer at a time; true
   when it reproduces the untraced reference answers. *)
let replay_traced v =
  let model = model_of_source v.src in
  let alloc0 = Gc.allocated_bytes () in
  let built = layer "build" (fun () -> Semantics.build model) in
  let chain = built.Semantics.chain in
  let n = Ctmc.Chain.states chain in
  bill "build.alloc_bytes" (Gc.allocated_bytes () -. alloc0);
  bill "build.states" (float_of_int n);
  let a = Analysis.create chain in
  let m = { Measures.built; analysis = a; csl = Csl.Checker.of_chain ~analysis:a chain; lump = false } in
  let suite = List.length v.queries > List.length hot_queries in
  let full = Semantics.service_at_least built 1. in
  let (), label_s =
    timed (fun () ->
        layer "label" (fun () ->
            ignore (Array.init n full);
            ignore (Array.init n (Semantics.operational_pred built));
            ignore (Semantics.cost_structure built)))
  in
  bill "label.states" (float_of_int (3 * n));
  if not suite then bill "hot.label.s" label_s;
  let it0 = solver_iterations () in
  ignore (layer "steady" (fun () -> Ctmc.Steady_state.solve ~analysis:a chain));
  bill "solver.iterations" (float_of_int (solver_iterations () - it0));
  bill "steady.solves" 1.;
  let sub =
    if suite then begin
      let sub = layer "derive" (fun () -> Analysis.absorbed a ~pred:(fun s -> not (full s))) in
      layer "derive" (fun () -> ignore (Analysis.uniformized sub); ignore (Analysis.uniformized a));
      bill "derive.builds" 3.;
      layer "weights" (fun () ->
          ignore (Analysis.weights sub 1000.);
          ignore (Analysis.weights a 1000.));
      bill "weights.computes"
        (float_of_int ((Analysis.stats sub).weight_computes + (Analysis.stats a).weight_computes));
      Some sub
    end
    else None
  in
  let a0 = Analysis.stats a and sub0 = Option.map Analysis.stats sub in
  let values = layer (if suite then "mixture" else "measure") (fun () -> expected_values v.queries m) in
  let a1 = Analysis.stats a in
  expect_no_builds v.base a0 a1;
  bill_kernel a a0 a1;
  bill "weights.hits" (float_of_int (a1.weight_hits - a0.weight_hits));
  (match (sub, sub0) with
  | Some sub, Some s0 ->
      let s1 = Analysis.stats sub in
      expect_no_builds v.base s0 s1;
      bill_kernel sub s0 s1;
      bill "weights.hits" (float_of_int (s1.weight_hits - s0.weight_hits))
  | _ -> ());
  Array.for_all2 (fun x y -> close_to ~tol:1e-12 x y) (Lazy.force v.expected) values

(* The daemon's admission work for one request body: decode, lint,
   parse the queries. *)
let admit b =
  let json = Json.parse b in
  Option.iter (fun src -> ignore (Lint.lint_string src)) (Json.string_field "model" json);
  List.iter
    (function Json.Str q -> ignore (Csl.Parser.parse q) | _ -> ())
    (Option.value (Json.list_field "queries" json) ~default:[])

let serve ~seed ~seconds ~trace =
  let started = now () in
  let budget = 150. in
  let cal = Host.create () in
  (* set-ups and drain blocks last seconds: two calibrations after each *)
  let calibrations = 2 in
  Host.calibrate cal;
  let plan, reference_s = timed (fun () -> make_plan ~seed ~seconds ~trace) in
  say "serve: seed %d; references computed in %.2fs" seed reference_s;
  (* set-up: start the daemon and make the hot and suite variants
     resident; done three times, the last daemon is kept *)
  let warm d =
    Array.iter
      (fun v ->
        match Http.request ~host ~port:d.port ~meth:"POST" ~path:"/analyze" ~body:(body v) () with
        | 200, _ -> ()
        | status, _ -> failwith (Printf.sprintf "warm-up answered %d" status))
      (Array.append plan.hot plan.suite)
  in
  let d, raw_setup, setup =
    median_setup ~cal ~discard:stop_daemon ~after:calibrations ~times:3 (fun () ->
        let d = start_daemon () in
        (try warm d with e -> stop_daemon d; raise e);
        d)
  in
  Fun.protect ~finally:(fun () -> stop_daemon d) @@ fun () ->
  let deadline = started +. budget in
  (* The drain: [seconds / drain_block_s] blocks, each sent back to back
     on one connection, so a block's wall time is the sum of its service
     times whatever order the seed shuffled them into. Every block leaves
     five more sessions resident and later blocks cost a little more, so
     the count is fixed by [seconds], not by how many fit. The daemon's
     peak RSS is read after the second block. *)
  let blocks, rss =
    List.fold_left
      (fun (acc, rss) b ->
        let make =
          measure ~after:calibrations cal (fun () ->
              let rs = run_requests ~connections:1 d b ~deadline in
              (rs, List.fold_left (fun acc r -> Float.max acc r.S.finished) 0. rs))
        in
        let rss = if List.length acc = 1 then peak_rss_mb (string_of_int d.pid) else rss in
        (make :: acc, rss))
      ([], 0.) plan.drain
  in
  let blocks = List.rev_map (fun make -> make ()) blocks in
  say "serve: drain block walls %s"
    (String.concat " " (List.map (fun b -> Printf.sprintf "%.3f" b.raw) blocks));
  let drain = List.concat_map (fun b -> b.value) blocks in
  let raw_wall = S.median (List.map (fun b -> b.raw) blocks) in
  let wall = S.median (List.map (fun b -> b.adj) blocks) in
  let attempted = List.length drain and failed = S.errors drain in
  let e2e =
    end_to_end ~wall ~raw_wall
      ~wall_note:
        (Printf.sprintf "%d requests back to back on one connection, median of %d blocks"
           block_requests (List.length blocks))
      ~setup ~raw_setup ~setup_note:"median of 3 daemon start + warm-ups"
      ~rss ~rss_note:"daemon VmHWM after two blocks"
  in
  let error_rate = S.ratio (float_of_int failed) (float_of_int attempted) in
  print_table "serve: end-to-end" (e2e @ [ metric "error_rate" "ratio" error_rate ]);
  if not trace then { metrics = e2e; attempted; failed }
  else begin
    (* the open loop, and the daemon counters over it *)
    say "serve: open loop of %d requests at %g/s" (List.length plan.open_loop) base_rate;
    let stats0 = get_json d "/stats" and metrics0 = get_json d "/metrics" in
    let open_loop = run_requests d plan.open_loop ~deadline in
    let stats1 = get_json d "/stats" and metrics1 = get_json d "/metrics" in
    let attempted = attempted + List.length open_loop in
    let failed = failed + S.errors open_loop in
    let failed =
      if S.generator_falling_behind open_loop then begin
        say "invalid run: the load generator fell behind its own schedule";
        failed + 1
      end
      else failed
    in
    let latencies = List.map S.latency_ms open_loop in
    let p50 = S.median (List.filter Float.is_finite latencies) in
    let class_p50 cls =
      match S.class_p50 cls open_loop with
      | Some (x, n) -> (x, n)
      | None -> (0., 0)
    in
    let per_class =
      metric "p50_ms" "ms" p50
        ~note:(Printf.sprintf "all classes from due time, n=%d" (List.length latencies))
      :: List.map
           (fun cls ->
             let x, n = class_p50 cls in
             metric (cls ^ "_p50_ms") "ms" x ~note:(Printf.sprintf "n=%d" n))
           [ "hot"; "cold"; "suite" ]
      @
      match S.tail latencies with
      | Some t ->
          [
            metric "tail_ms" "ms" t.value
              ~note:(Printf.sprintf "p%g of n=%d, %d beyond" t.level t.samples t.beyond);
          ]
      | None -> [ metric "tail_ms" "ms" 0. ~note:"too few samples for the tail rule" ]
    in
    print_table "serve: open loop" per_class;
    let dstat path = S.delta ~before:stats0 ~after:stats1 path in
    let hits = dstat [ "sessions"; "hits" ] and misses = dstat [ "sessions"; "misses" ] in
    let requests = dstat [ "server"; "requests" ] in
    let suite_reqs = float_of_int (List.length (S.of_class "suite" open_loop)) in
    let handled key =
      S.delta ~before:metrics0 ~after:metrics1 [ "histograms"; "server.latency_ms.analyze"; key ]
    in
    let handled_ms = handled "sum" and handled_n = handled "total" in
    let ok_latency = List.filter Float.is_finite latencies in
    let client_ms = List.fold_left ( +. ) 0. ok_latency in
    (* the sustained rate: highest rung whose tail meets the limit *)
    let rungs = ref [] in
    let sustained =
      S.ladder_search (List.map fst plan.ladder) (fun rate ->
          (* a rung that could not finish inside the run's budget ends the
             search instead of tripping the watchdog *)
          if now () +. (float_of_int block_requests /. rate) +. 15. > deadline then begin
            say "  ladder %5.1f/s: not tried, the run's time budget is spent" rate;
            false
          end
          else
          let rs = run_requests d (List.assoc rate plan.ladder) ~deadline in
          rungs := (rate, rs) :: !rungs;
          let ok = S.rung_ok ~limit_ms:tail_limit_ms rs in
          let t = S.tail (List.map S.latency_ms rs) in
          say "  ladder %5.1f/s: %d requests, tail %s, backlog %s: %s" rate (List.length rs)
            (match t with Some t -> Printf.sprintf "p%g=%.1fms (%d beyond)" t.level t.value t.beyond | None -> "n/a")
            (if S.backlog_growing rs then "growing" else "steady")
            (if ok then "meets" else "misses");
          ok)
    in
    let rung_reqs = List.concat_map snd !rungs in
    let late = List.map S.gen_late_ms open_loop in
    (* the same in-process work as the reference answers, untraced and
       then one layer at a time *)
    let variants = Array.to_list plan.hot @ Array.to_list plan.suite in
    let (), untraced =
      timed (fun () ->
          List.iter
            (fun v -> ignore (expected_values v.queries (Measures.analyze (model_of_source v.src))))
            variants)
    in
    Obs.Metrics.set_enabled true;
    Gc.full_major ();
    let oks, traced = timed (fun () -> List.map replay_traced variants) in
    List.iter
      (fun r ->
        layer "admission" (fun () -> admit (body r.v));
        bill "admission.reqs" 1.)
      plan.open_loop;
    let hot_ms =
      1000. *. (get "admission.s" /. get "admission.reqs" +. (get "hot.label.s" /. float_of_int (Array.length plan.hot)))
    in
    (* on the one-connection drain nothing queues: send to answer is the
       service time, less the 5 ms batch window *)
    let service =
      S.median (List.map (fun r -> S.service_ms r -. 5.) (S.of_class "hot" drain))
    in
    say "prediction: admission + label are most of hot service time (%.2fms of %.2fms): %s"
      hot_ms service (if hot_ms >= 0.5 *. service then "holds" else "does not hold");
    let attempted = attempted + List.length rung_reqs + List.length oks in
    let failed = failed + S.errors rung_reqs + List.length (List.filter not oks) + !cache_violations in
    let extra =
      [
        metric "session.hit_ratio" "ratio" (S.ratio hits (hits +. misses));
        metric "coalesced_share" "ratio" (S.ratio (dstat [ "server"; "coalesced" ]) requests);
        metric "sweeps_per_suite_req" "count"
          (S.ratio (dstat [ "analysis"; "mixture_passes" ]) suite_reqs)
          ~note:(Printf.sprintf "naive %g" naive_sweeps_per_suite);
        metric "server.wait_ms" "ms" (S.ratio (client_ms -. handled_ms) handled_n);
        metric "gen.late_ms" "ms" (S.median late)
          ~note:(Printf.sprintf "median own send lateness, p90 %.2fms" (S.percentile (S.sorted late) 90.));
        metric "sustained_rps" "1/s" sustained ~note:(Printf.sprintf "tail limit %gms" tail_limit_ms);
      ]
      @ per_class
    in
    let error_rate = S.ratio (float_of_int failed) (float_of_int attempted) in
    let extra =
      daemon_metrics extra
      @ Host.metrics cal ~raw_wall ~wall ~raw_setup
      @ [ metric "error_rate" "ratio" error_rate ]
    in
    let layers = layer_metrics ~overhead:(traced /. untraced) ~extra in
    print_table "serve: per layer" layers;
    { metrics = layers; attempted; failed }
  end

(* ------------------------------------------------------------------ *)
(* Command line                                                       *)

let workloads = [ "tables"; "curves"; "serve" ]

let run_workload ~seed ~seconds ~trace = function
  | "tables" -> tables ~seconds ~trace
  | "curves" -> curves ~seconds ~trace
  | "serve" -> serve ~seed ~seconds ~trace
  | w -> raise (Arg.Bad ("unknown workload " ^ w))

(* All workloads in one process, metric names prefixed by workload: an
   overview for people, not the gated figures (peak RSS accumulates). *)
let run_all ~seed ~seconds ~trace =
  List.fold_left
    (fun acc w ->
      Hashtbl.reset ledger;
      cache_violations := 0;
      let r = run_workload ~seed ~seconds ~trace w in
      {
        metrics = acc.metrics @ List.map (fun m -> { m with name = w ^ "." ^ m.name }) r.metrics;
        attempted = acc.attempted + r.attempted;
        failed = acc.failed + r.failed;
      })
    { metrics = []; attempted = 0; failed = 0 }
    workloads

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  let usage = "main.exe --workload tables|curves|serve|all --seed N --seconds N --trace 0|1" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME tables, curves, serve or all");
      ("--seed", Arg.Set_int seed, "N workload seed (serve uses it)");
      ("--seconds", Arg.Set_int seconds, "N how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (Sys.file_exists "models" && Sys.is_directory "models") then begin
    prerr_endline "wtbench: run from the repository root (models/ not found)";
    exit 2
  end;
  (* tables and curves are timed on one domain *)
  Unix.putenv "PAR_DOMAINS" "1";
  (* a daemon that dies mid-request fails that request, not the run *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let seconds = float_of_int (max 1 !seconds) and trace = !trace = 1 in
  say "wtbench: workload %s, seed %d, %gs, trace %b" !workload !seed seconds trace;
  let r =
    match !workload with
    | "all" -> run_all ~seed:!seed ~seconds ~trace
    | w when List.mem w workloads -> run_workload ~seed:!seed ~seconds ~trace w
    | w ->
        prerr_endline ("wtbench: unknown workload " ^ w ^ "\n" ^ usage);
        exit 2
  in
  print_endline (Json.to_string (result_json r));
  exit (if r.failed = 0 then 0 else 1)
