(* Persistent bench artifacts: run a pinned instance set, collect one
   Rfloor_metrics.Artifact entry per solve (headline numbers + the
   trace report + a metrics snapshot) and write BENCH_<label>.json.

   The "quick" set stays on the mini device on purpose: this is the
   bench-smoke gate and must finish in seconds on a 1-core container.
   The "fx70t" set exercises the paper's real device through the exact
   combinatorial engine (the MILP root LP alone is far beyond any smoke
   budget there) and is only for manual, long-budget runs. *)

open Device
module R = Rfloor_metrics.Registry
module A = Rfloor_metrics.Artifact
module Json = Rfloor_metrics.Json

let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    if line = "" then "unknown" else line
  with _ -> "unknown"

let status_string = function
  | Rfloor.Solver.Optimal -> "optimal"
  | Rfloor.Solver.Feasible -> "feasible"
  | Rfloor.Solver.Infeasible -> "infeasible"
  | Rfloor.Solver.Unknown -> "unknown"

let parse_report r =
  match Json.parse (Rfloor_trace.Report.to_json r) with
  | Ok j -> Some j
  | Error _ -> None

(* ---- quick set: mini-device toys, milliseconds each ---- *)

let toy_spec =
  lazy
    (let r name demand = { Spec.r_name = name; demand } in
     Spec.make ~name:"artifact-toy"
       ~nets:(Spec.chain_nets ~weight:1. [ "R1"; "R2" ])
       ~relocs:[ { Spec.target = "R1"; copies = 1; mode = Spec.Hard } ]
       [
         r "R1" [ (Resource.Clb, 2); (Resource.Bram, 1) ];
         r "R2" [ (Resource.Clb, 2); (Resource.Dsp, 1) ];
       ])

let quick_entry ~budget ~workers (name, objective_mode, warm_lp) =
  let part = Partition.columnar_exn Devices.mini in
  let spec = Lazy.force toy_spec in
  let metrics = R.create () in
  let options =
    Rfloor.Solver.Options.make ~time_limit:budget
      ~strategy:(Rfloor.Solver.Strategy.milp ~workers ())
      ~metrics ~objective_mode ~warm_lp ()
  in
  let o = Rfloor.Solver.solve ~options part spec in
  {
    A.e_instance = name;
    e_status = status_string o.Rfloor.Solver.status;
    e_objective = o.Rfloor.Solver.objective_value;
    e_wasted = Option.map float_of_int o.Rfloor.Solver.wasted;
    e_nodes = o.Rfloor.Solver.nodes;
    e_simplex_iterations = o.Rfloor.Solver.simplex_iterations;
    e_elapsed = o.Rfloor.Solver.elapsed;
    e_report = parse_report o.Rfloor.Solver.report;
    e_metrics = Some (R.to_json_value (R.snapshot metrics));
  }

(* reloc-twin-cuts / reloc-twin-nocuts: the symmetry/packing-cut twin.
   Three requested copies of R1's area make the copies interchangeable,
   so the lexicographic symmetry chains actually bite.  The device is a
   DSP column next to a CLB column: every copy competes for the single
   DSP column, which is exactly the regime where the per-portion
   packing rows tighten the root relaxation.  A single-stage
   (wasted-frames) branch-and-bound run with and without the cut
   families records the node saving in every artifact.  The runs go
   through Model.build + Branch_bound.solve directly so both prove
   optimality well inside the smoke budget and the node counts compare
   tree sizes, not time-sliced throughput. *)
let reloc_grid =
  lazy
    (Grid.of_columns ~name:"reloc-twin" ~rows:4
       [ Resource.tile_type Resource.Dsp; Resource.tile_type Resource.Clb ])

let reloc_spec =
  lazy
    (Spec.make ~name:"artifact-reloc"
       ~relocs:[ { Spec.target = "R1"; copies = 3; mode = Spec.Soft 1. } ]
       [ { Spec.r_name = "R1"; demand = [ (Resource.Dsp, 2) ] } ])

let cuts_entry ~budget (name, cuts) =
  let part = Partition.columnar_exn (Lazy.force reloc_grid) in
  let spec = Lazy.force reloc_spec in
  let metrics = R.create () in
  let trace =
    Rfloor_trace.create ~sink:(Rfloor_metrics.Trace_sink.sink metrics) ()
  in
  let model =
    Rfloor.Model.build
      ~options:
        {
          Rfloor.Model.objective = Rfloor.Model.Wasted_frames_only;
          paper_literal_l = false;
          pair_relations = [];
          extra_waste_cap = None;
          cuts;
        }
      part spec
  in
  Rfloor_trace.cuts_added trace ~worker:0 ~rounds:1
    ~cuts:(Rfloor.Model.cuts_applied model);
  let r =
    Milp.Branch_bound.solve
      ~options:
        {
          Milp.Branch_bound.default_options with
          time_limit = Some budget;
          priorities = Some (Rfloor.Model.branching_priorities model);
          trace;
        }
      (Rfloor.Model.lp model)
  in
  {
    A.e_instance = name;
    e_status =
      (match r.Milp.Branch_bound.status with
      | Milp.Branch_bound.Optimal -> "optimal"
      | Milp.Branch_bound.Feasible -> "feasible"
      | Milp.Branch_bound.Infeasible -> "infeasible"
      | Milp.Branch_bound.Unbounded -> "unbounded"
      | Milp.Branch_bound.Unknown -> "unknown");
    e_objective = Option.map fst r.Milp.Branch_bound.incumbent;
    e_wasted = Option.map fst r.Milp.Branch_bound.incumbent;
    e_nodes = r.Milp.Branch_bound.nodes;
    e_simplex_iterations = r.Milp.Branch_bound.simplex_iterations;
    e_elapsed = r.Milp.Branch_bound.elapsed;
    e_report = None;
    e_metrics = Some (R.to_json_value (R.snapshot metrics));
  }

(* online-mini-replay: the dynamic traffic shape — a seeded 100-event
   arrival/departure trace replayed against the online layout with the
   no-break defragmentation planner.  Status "ok" means every audit
   held: each move passed the relocation filter, non-moving frames
   came through byte-identical, and the incremental free-rectangle set
   matched the from-scratch recompute after every event.  e_nodes
   carries the event count, e_simplex_iterations the executed moves,
   e_objective the final fragmentation ratio. *)
let online_entry ~seed ~events name =
  let module W = Rfloor_online.Workload in
  let part = Partition.columnar_exn Devices.mini in
  let trace = W.generate ~seed ~events part in
  let t0 = Unix.gettimeofday () in
  let stats = W.replay part trace in
  let elapsed = Unix.gettimeofday () -. t0 in
  {
    A.e_instance = name;
    e_status = (if stats.W.s_violations = [] then "ok" else "violated");
    e_objective = Some (Rfloor_online.Layout.fragmentation stats.W.s_final);
    e_wasted = None;
    e_nodes = stats.W.s_events;
    e_simplex_iterations = stats.W.s_moves;
    e_elapsed = elapsed;
    e_report = None;
    e_metrics = None;
  }

(* mini-toy-lex runs twice, with and without LP warm starts: the pair
   of entries records the warm-vs-cold simplex-pivot comparison (and
   the rfloor_lp_*_total counters in e_metrics) in every artifact, so
   bench-compare history tracks the warm-start win. *)
let quick_entries ~budget ~workers () =
  List.map
    (quick_entry ~budget ~workers)
    [
      ("mini-toy-lex", Rfloor.Solver.Lexicographic, true);
      ("mini-toy-lex-coldlp", Rfloor.Solver.Lexicographic, false);
      ("mini-toy-feas", Rfloor.Solver.Feasibility_only, true);
      ( "mini-toy-weighted",
        Rfloor.Solver.Weighted Rfloor.Objective.default_weights,
        true );
    ]
  @ List.map
      (cuts_entry ~budget)
      [ ("reloc-twin-cuts", true); ("reloc-twin-nocuts", false) ]
  @ [ online_entry ~seed:2015 ~events:100 "online-mini-s2015-e100" ]

(* ---- fx70t set: the paper's evaluation workload, exact engine ---- *)

let fx70t_entry ~budget (name, spec) =
  let part = Partition.columnar_exn Devices.virtex5_fx70t in
  let opts =
    { Search.Engine.default_options with time_limit = Some budget }
  in
  let r = Search.Engine.solve ~options:opts part spec in
  {
    A.e_instance = name;
    e_status =
      (match (r.Search.Engine.plan, r.Search.Engine.optimal) with
      | Some _, true -> "optimal"
      | Some _, false -> "feasible"
      | None, true -> "infeasible"
      | None, false -> "unknown");
    e_objective = Option.map float_of_int r.Search.Engine.wasted;
    e_wasted = Option.map float_of_int r.Search.Engine.wasted;
    e_nodes = r.Search.Engine.nodes;
    e_simplex_iterations = 0;
    e_elapsed = r.Search.Engine.elapsed;
    e_report = None;
    e_metrics = None;
  }

let fx70t_entries ~budget () =
  List.map
    (fx70t_entry ~budget)
    [ ("fx70t-sdr", Sdr.design); ("fx70t-sdr2", Sdr.sdr2) ]

let run ~label ~dir ~instances () =
  let budget = Reports.budget () in
  let workers = Reports.workers () in
  let entries =
    match instances with
    | `Quick -> quick_entries ~budget ~workers ()
    | `Fx70t -> fx70t_entries ~budget ()
  in
  let artifact =
    {
      A.a_label = label;
      a_created = Unix.time ();
      a_git_rev = git_rev ();
      a_workers = workers;
      a_budget = budget;
      a_entries = entries;
    }
  in
  let path = Filename.concat dir (Printf.sprintf "BENCH_%s.json" label) in
  let text = A.to_string artifact in
  (* self-check before publishing: a malformed artifact would poison
     every later bench-compare against it *)
  (match A.validate text with
  | Ok _ -> ()
  | Error e -> failwith (Printf.sprintf "artifact failed self-validation: %s" e));
  let oc = open_out path in
  output_string oc text;
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s (%d entries, budget %gs, %d workers, rev %s)\n%!"
    path (List.length entries) budget workers artifact.A.a_git_rev;
  path
