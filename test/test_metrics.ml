(* Unit tests for Rfloor_metrics: registry semantics (idempotent
   registration, null no-ops, domain-safe updates), Prometheus/JSON
   export, the trace-event fold, and bench artifacts with regression
   gating. *)

module R = Rfloor_metrics.Registry
module A = Rfloor_metrics.Artifact
module Json = Rfloor_metrics.Json
module T = Rfloor_trace
module E = T.Event

let has_sub needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let check_sub label needle hay =
  if not (has_sub needle hay) then
    Alcotest.failf "%s: %S not found in %s" label needle hay

(* ---- registry basics ---- *)

let test_instruments () =
  let reg = R.create () in
  Alcotest.(check bool) "live" true (R.live reg);
  let c = R.counter reg "c_total" in
  R.Counter.incr c;
  R.Counter.add c 4;
  R.Counter.add c (-100);
  Alcotest.(check int) "counter monotone" 5 (R.Counter.value c);
  let g = R.gauge reg "g" in
  R.Gauge.set g 2.5;
  R.Gauge.set g 1.25;
  Alcotest.(check (float 0.)) "gauge holds last" 1.25 (R.Gauge.value g);
  let h = R.histogram reg ~buckets:[| 1.; 10. |] "h_seconds" in
  List.iter (R.Histogram.observe h) [ 0.5; 5.; 50. ];
  Alcotest.(check int) "histogram count" 3 (R.Histogram.count h);
  Alcotest.(check (float 1e-9)) "histogram sum" 55.5 (R.Histogram.sum h)

let test_null_registry () =
  Alcotest.(check bool) "null not live" false (R.live R.null);
  let c = R.counter R.null "c_total" in
  let g = R.gauge R.null "g" in
  let h = R.histogram R.null "h" in
  R.Counter.incr c;
  R.Gauge.set g 7.;
  R.Histogram.observe h 1.;
  Alcotest.(check int) "noop counter" 0 (R.Counter.value c);
  Alcotest.(check (float 0.)) "noop gauge" 0. (R.Gauge.value g);
  Alcotest.(check int) "noop histogram" 0 (R.Histogram.count h);
  Alcotest.(check int) "null snapshot empty" 0 (List.length (R.snapshot R.null))

let test_idempotent_registration () =
  let reg = R.create () in
  let c1 = R.counter reg ~labels:[ ("k", "v") ] "c_total" in
  let c2 = R.counter reg ~labels:[ ("k", "v") ] "c_total" in
  R.Counter.incr c1;
  R.Counter.incr c2;
  (* same series: both handles hit the same cell *)
  Alcotest.(check int) "same series accumulates" 2 (R.Counter.value c1);
  let c3 = R.counter reg ~labels:[ ("k", "other") ] "c_total" in
  Alcotest.(check int) "distinct labels distinct cell" 0 (R.Counter.value c3);
  (match R.gauge reg "c_total" with
  | _ -> Alcotest.fail "kind mismatch accepted"
  | exception Invalid_argument _ -> ());
  let _ = R.histogram reg ~buckets:[| 1.; 2. |] "h" in
  match R.histogram reg ~buckets:[| 1.; 3. |] "h" with
  | _ -> Alcotest.fail "bucket mismatch accepted"
  | exception Invalid_argument _ -> ()

let test_concurrent_updates () =
  let reg = R.create () in
  let c = R.counter reg "c_total" in
  let h = R.histogram reg ~buckets:[| 0.5 |] "h" in
  let per_domain = 10_000 in
  let worker () =
    for i = 1 to per_domain do
      R.Counter.incr c;
      R.Histogram.observe h (if i mod 2 = 0 then 0.25 else 0.75)
    done
  in
  let domains = List.init 4 (fun _ -> Domain.spawn worker) in
  List.iter Domain.join domains;
  Alcotest.(check int) "counter exact under 4 domains" (4 * per_domain)
    (R.Counter.value c);
  Alcotest.(check int) "histogram count exact" (4 * per_domain)
    (R.Histogram.count h);
  Alcotest.(check (float 1e-6))
    "histogram sum exact (CAS accumulation)"
    (float_of_int (4 * per_domain) *. 0.5)
    (R.Histogram.sum h);
  match R.snapshot reg with
  | [ R.Snapshot.Counter _; R.Snapshot.Histogram { buckets; count; _ } ] ->
    Alcotest.(check int) "snapshot count" (4 * per_domain) count;
    (match buckets with
    | [| (_, low); (bound, all) |] ->
      Alcotest.(check int) "le=0.5 bucket" (2 * per_domain) low;
      Alcotest.(check int) "+Inf bucket cumulative" (4 * per_domain) all;
      Alcotest.(check bool) "+Inf bound" true (bound = infinity)
    | _ -> Alcotest.fail "expected 2 buckets")
  | ms -> Alcotest.failf "expected 2 metrics, got %d" (List.length ms)

(* ---- export ---- *)

let test_prometheus_text () =
  let reg = R.create () in
  R.Counter.add (R.counter reg ~help:"a counter" "rf_c_total") 3;
  R.Gauge.set (R.gauge reg "rf_g") 1.5;
  R.Histogram.observe
    (R.histogram reg ~labels:[ ("phase", "root_lp") ] ~buckets:[| 1. |] "rf_h")
    0.5;
  let text = R.to_prometheus (R.snapshot reg) in
  check_sub "help" "# HELP rf_c_total a counter" text;
  check_sub "counter type" "# TYPE rf_c_total counter" text;
  check_sub "counter value" "rf_c_total 3" text;
  check_sub "gauge" "rf_g 1.5" text;
  check_sub "labeled bucket" "rf_h_bucket{phase=\"root_lp\",le=\"1\"} 1" text;
  check_sub "inf bucket" "le=\"+Inf\"} 1" text;
  check_sub "sum" "rf_h_sum{phase=\"root_lp\"} 0.5" text;
  check_sub "count" "rf_h_count{phase=\"root_lp\"} 1" text;
  Alcotest.(check bool) "ends with newline" true
    (text <> "" && text.[String.length text - 1] = '\n')

let test_json_validate () =
  let reg = R.create () in
  R.Counter.incr (R.counter reg "c_total");
  R.Histogram.observe (R.histogram reg "h_seconds") 0.01;
  let js = R.to_json (R.snapshot reg) in
  check_sub "schema tag" "\"schema\":\"rfloor-metrics/1\"" js;
  (match R.validate_json js with
  | Ok n -> Alcotest.(check int) "2 metrics" 2 n
  | Error e -> Alcotest.failf "valid snapshot rejected: %s" e);
  let reject label doc =
    match R.validate_json doc with
    | Ok _ -> Alcotest.failf "%s accepted" label
    | Error _ -> ()
  in
  reject "not json" "nope";
  reject "wrong schema" {|{"schema":"rfloor-metrics/999","metrics":[]}|};
  reject "negative counter"
    {|{"schema":"rfloor-metrics/1","metrics":[{"name":"c","kind":"counter","help":"","labels":{},"value":-1}]}|};
  reject "decreasing bucket counts"
    {|{"schema":"rfloor-metrics/1","metrics":[{"name":"h","kind":"histogram","help":"","labels":{},"sum":1,"count":2,"buckets":[{"le":1,"count":2},{"le":null,"count":1}]}]}|};
  reject "duplicate series"
    {|{"schema":"rfloor-metrics/1","metrics":[{"name":"c","kind":"counter","help":"","labels":{},"value":1},{"name":"c","kind":"counter","help":"","labels":{},"value":2}]}|}

(* ---- trace-event fold ---- *)

let test_trace_sink_fold () =
  let reg = R.create () in
  let tracer = T.create ~sink:(Rfloor_metrics.Trace_sink.sink reg) () in
  T.span tracer E.Build (fun () -> ());
  T.span tracer E.Root_lp (fun () -> ());
  for i = 1 to 5 do
    T.node_explored tracer ~iters:0 ~worker:0 ~depth:i ~bound:1.
  done;
  T.node_explored tracer ~iters:0 ~worker:1 ~depth:1 ~bound:2.;
  T.incumbent tracer ~worker:0 ~objective:42. ~node:3;
  T.incumbent tracer ~worker:0 ~objective:40. ~node:5;
  T.steal tracer ~worker:1 ~tasks:4;
  T.warn tracer "w";
  let snap = R.snapshot reg in
  let counter_value name labels =
    let m =
      List.find_opt
        (function
          | R.Snapshot.Counter c -> c.name = name && c.labels = labels
          | _ -> false)
        snap
    in
    match m with
    | Some (R.Snapshot.Counter c) -> c.value
    | _ -> Alcotest.failf "missing counter %s" name
  in
  Alcotest.(check int) "nodes folded" 6 (counter_value "rfloor_nodes_total" []);
  Alcotest.(check int) "incumbents folded" 2
    (counter_value "rfloor_incumbents_total" []);
  Alcotest.(check int) "steal tasks folded" 4
    (counter_value "rfloor_steal_tasks_total" []);
  Alcotest.(check int) "warnings folded" 1
    (counter_value "rfloor_warnings_total" []);
  Alcotest.(check int) "per-worker nodes" 5
    (counter_value "rfloor_worker_nodes_total" [ ("worker", "0") ]);
  let incumbent_gauge =
    List.find_map
      (function
        | R.Snapshot.Gauge g when g.name = "rfloor_incumbent_objective" ->
          Some g.value
        | _ -> None)
      snap
  in
  Alcotest.(check (option (float 0.))) "latest incumbent objective"
    (Some 40.) incumbent_gauge;
  let phase_series =
    List.filter_map
      (function
        | R.Snapshot.Histogram h when h.name = "rfloor_phase_seconds" ->
          List.assoc_opt "phase" h.labels
        | _ -> None)
      snap
  in
  Alcotest.(check (list string))
    "per-phase wall-time series" [ "build"; "root_lp" ]
    (List.sort compare phase_series);
  (* a dead registry must hand back the null sink *)
  Alcotest.(check bool) "null registry folds to null sink" true
    (T.Sink.is_null (Rfloor_metrics.Trace_sink.sink R.null))

(* ---- solver integration: direct instrumentation ---- *)

let test_solver_populates_metrics () =
  let part = Device.Partition.columnar_exn Device.Devices.mini in
  let spec =
    Device.Spec.make ~name:"metrics-toy"
      [
        { Device.Spec.r_name = "R1"; demand = [ (Device.Resource.Clb, 2) ] };
        { Device.Spec.r_name = "R2"; demand = [ (Device.Resource.Dsp, 1) ] };
      ]
  in
  let metrics = R.create () in
  let options =
    Rfloor.Solver.Options.make ~time_limit:10. ~metrics ()
  in
  let o = Rfloor.Solver.solve ~options part spec in
  Alcotest.(check bool) "solved" true (o.Rfloor.Solver.status = Rfloor.Solver.Optimal);
  let snap = R.snapshot metrics in
  let hist_count name =
    List.fold_left
      (fun acc -> function
        | R.Snapshot.Histogram h when h.name = name -> acc + h.count
        | _ -> acc)
      0 snap
  in
  Alcotest.(check bool) "lp time histogram populated" true
    (hist_count "rfloor_lp_solve_seconds" > 0);
  Alcotest.(check bool) "simplex pivots histogram populated" true
    (hist_count "rfloor_simplex_iterations_per_lp" > 0);
  (* the Solver runs no Gomory round (gomory_rounds = 0), so every cut
     row the trace fold counts is a model-build row *)
  let counter name = R.Counter.value (R.counter metrics name) in
  Alcotest.(check bool) "model-build cut rows counted" true
    (counter "rfloor_cuts_applied_total" > 0);
  Alcotest.(check int) "cuts_total = cuts_applied_total without Gomory"
    (counter "rfloor_cuts_applied_total")
    (counter "rfloor_cuts_total");
  (* the trace fold ran too: phases were recorded *)
  Alcotest.(check bool) "phase series populated" true
    (List.exists
       (function
         | R.Snapshot.Histogram h -> h.name = "rfloor_phase_seconds"
         | _ -> false)
       snap);
  (* the export of a real solve must self-validate *)
  match R.validate_json (R.to_json snap) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "solver snapshot invalid: %s" e

(* ---- bench artifacts ---- *)

let entry ?(status = "optimal") ?(objective = Some 4.) ?(wasted = Some 4.)
    ?(nodes = 100) ?(elapsed = 1.0) name =
  {
    A.e_instance = name;
    e_status = status;
    e_objective = objective;
    e_wasted = wasted;
    e_nodes = nodes;
    e_simplex_iterations = 10 * nodes;
    e_elapsed = elapsed;
    e_report = None;
    e_metrics = None;
  }

let artifact ?(label = "test") entries =
  {
    A.a_label = label;
    a_created = 1700000000.;
    a_git_rev = "deadbee";
    a_workers = 1;
    a_budget = 30.;
    a_entries = entries;
  }

let test_artifact_roundtrip () =
  let reg = R.create () in
  R.Counter.incr (R.counter reg "c_total");
  let a =
    artifact
      [
        {
          (entry "i1") with
          A.e_metrics = Some (R.to_json_value (R.snapshot reg));
        };
        entry ~status:"feasible" ~objective:None "i2";
      ]
  in
  let text = A.to_string a in
  check_sub "schema tag" "\"schema\":\"rfloor-bench/1\"" text;
  (match A.validate text with
  | Ok n -> Alcotest.(check int) "2 entries" 2 n
  | Error e -> Alcotest.failf "artifact rejected: %s" e);
  match A.of_string text with
  | Error e -> Alcotest.failf "of_string failed: %s" e
  | Ok a' ->
    Alcotest.(check string) "label" a.A.a_label a'.A.a_label;
    Alcotest.(check string) "rev" a.A.a_git_rev a'.A.a_git_rev;
    Alcotest.(check int) "entries" 2 (List.length a'.A.a_entries);
    (* round-trip is lossless: serialize again, compare, and the diff
       gate sees no change *)
    Alcotest.(check string) "canonical serialization" text (A.to_string a');
    Alcotest.(check int) "self-compare clean" 0
      (List.length (A.compare ~old_:a a'))

let test_artifact_regressions () =
  let old_ = artifact [ entry ~elapsed:1.0 "i1"; entry "i2" ] in
  (* identical artifacts: gate passes *)
  Alcotest.(check int) "identical clean" 0 (List.length (A.compare ~old_ old_));
  (* injected 3x slowdown on i1: flagged under the default 1.5x *)
  let slow = artifact [ entry ~elapsed:3.0 "i1"; entry "i2" ] in
  (match A.compare ~old_ slow with
  | [ r ] -> check_sub "names instance" "i1" r
  | rs -> Alcotest.failf "expected 1 slowdown, got %d" (List.length rs));
  (* ...but passes under a permissive threshold *)
  Alcotest.(check int) "threshold respected" 0
    (List.length
       (A.compare
          ~thresholds:{ A.default_thresholds with A.max_slowdown = 4.0 }
          ~old_ slow));
  (* sub-noise-floor slowdowns are ignored even at 10x *)
  let fast_old = artifact [ entry ~elapsed:0.001 "i1" ] in
  let fast_new = artifact [ entry ~elapsed:0.01 "i1" ] in
  Alcotest.(check int) "noise floor" 0
    (List.length (A.compare ~old_:fast_old fast_new));
  (* status drop, quality loss, node blowup, missing instance *)
  let worse =
    artifact
      [
        entry ~status:"feasible" ~elapsed:1.0 "i1";
        entry ~wasted:(Some 9.) ~objective:(Some 9.) "i2";
      ]
  in
  let rs = A.compare ~old_ worse in
  Alcotest.(check bool) "status drop flagged" true
    (List.exists (has_sub "i1") rs);
  Alcotest.(check bool) "quality loss flagged" true
    (List.exists (has_sub "i2") rs);
  (match A.compare ~old_ (artifact [ entry ~nodes:1000 "i1"; entry "i2" ]) with
  | [ r ] -> check_sub "node blowup" "i1" r
  | rs -> Alcotest.failf "expected 1 node regression, got %d" (List.length rs));
  match A.compare ~old_ (artifact [ entry "i1" ]) with
  | [ r ] -> check_sub "missing instance" "i2" r
  | rs -> Alcotest.failf "expected 1 missing, got %d" (List.length rs)

let test_artifact_validate_rejects () =
  let reject label doc =
    match A.validate doc with
    | Ok _ -> Alcotest.failf "%s accepted" label
    | Error _ -> ()
  in
  reject "not json" "nope";
  reject "wrong schema" {|{"schema":"rfloor-bench/999"}|};
  reject "missing entries"
    {|{"schema":"rfloor-bench/1","label":"x","created":0,"git_rev":"r","workers":1,"budget":1}|};
  reject "bad status"
    {|{"schema":"rfloor-bench/1","label":"x","created":0,"git_rev":"r","workers":1,"budget":1,"entries":[{"instance":"i","status":"great","nodes":0,"simplex_iterations":0,"elapsed":0}]}|};
  reject "bad embedded metrics"
    {|{"schema":"rfloor-bench/1","label":"x","created":0,"git_rev":"r","workers":1,"budget":1,"entries":[{"instance":"i","status":"optimal","nodes":0,"simplex_iterations":0,"elapsed":0,"metrics":{"schema":"rfloor-metrics/999","metrics":[]}}]}|}

let suites =
  [
    ( "metrics",
      [
        Alcotest.test_case "instrument basics" `Quick test_instruments;
        Alcotest.test_case "null registry no-ops" `Quick test_null_registry;
        Alcotest.test_case "idempotent registration, kind safety" `Quick
          test_idempotent_registration;
        Alcotest.test_case "updates exact under 4 domains" `Quick
          test_concurrent_updates;
        Alcotest.test_case "prometheus exposition shape" `Quick
          test_prometheus_text;
        Alcotest.test_case "json export validates, tampering rejected" `Quick
          test_json_validate;
        Alcotest.test_case "trace events fold into aggregates" `Quick
          test_trace_sink_fold;
        Alcotest.test_case "solver populates lp/pivot histograms" `Quick
          test_solver_populates_metrics;
      ] );
    ( "bench-artifact",
      [
        Alcotest.test_case "round trip and self-compare" `Quick
          test_artifact_roundtrip;
        Alcotest.test_case "regression gate: slowdown, status, nodes" `Quick
          test_artifact_regressions;
        Alcotest.test_case "schema rejection" `Quick
          test_artifact_validate_rejects;
      ] );
  ]
