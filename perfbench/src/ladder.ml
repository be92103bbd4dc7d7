(* milp-ladder: a closed loop of one solve at a time through the
   paper's relocation-aware MILP (strategy milp, 1 worker,
   lexicographic objective, fixed per-rung budget). *)

open Run
module S = Rfloor.Solver
module R = Rfloor_metrics.Registry
module E = Rfloor_trace.Event

let budget = 2.0
let rungs_per_second = 24.

type op = {
  o_rung : Gen.rung;
  o_out : (S.outcome, string) Stdlib.result;
  o_secs : float;
  o_minor : float;  (* minor words allocated by the solve *)
}

let proved (o : S.outcome) = o.S.status = S.Optimal || o.S.status = S.Infeasible

let phase_layer = function
  | E.Lint | E.Audit -> "analysis"
  | E.Build | E.Decode | E.Job -> "core"
  | E.Presolve | E.Root_lp | E.Branch_bound | E.Lp_solve -> "milp"

let options ?(trace = Rfloor_trace.Sink.null) ?(metrics = R.null) () =
  S.Options.make
    ~strategy:(S.Strategy.milp ~workers:1 ())
    ~objective_mode:S.Lexicographic ~time_limit:budget ~trace ~metrics ()

(* One pass over the ladder; with [spans] enabled every solve is a
   "core.solve" span holding the solver's own phases. *)
let pass ?(metrics = R.null) spans rungs =
  List.map
    (fun (r : Gen.rung) ->
      let phases = Spans.Phases.create () in
      let trace =
        if Spans.enabled spans then Spans.Phases.sink phases else Rfloor_trace.Sink.null
      in
      let options = options ~trace ~metrics () in
      let t0 = Spans.now () in
      let out, minor, _ =
        gc_delta (fun () ->
            try Ok (S.solve ~options r.Gen.r_part r.Gen.r_spec)
            with e -> Error (Printexc.to_string e))
      in
      let t1 = Spans.now () in
      if Spans.enabled spans then
        Spans.add spans
          (Spans.make ~name:"core.solve" ~op:r.Gen.r_id ~track:1 t0 t1
             ~children:(Spans.Phases.spans phases ~layer:phase_layer ~op:r.Gen.r_id ~track:1));
      { o_rung = r; o_out = out; o_secs = t1 -. t0; o_minor = minor })
    rungs

(* Proved verdicts are re-derived by the independent combinatorial
   engine; every plan passes the solution audit. *)
let check ops =
  List.concat_map
    (fun op ->
      let r = op.o_rung in
      let id = Printf.sprintf "rung %d" r.Gen.r_id in
      match op.o_out with
      | Error e -> [ id ^ ": exception " ^ e ]
      | Ok o ->
        let audit =
          match o.S.plan with
          | Some p -> Option.to_list (Checks.audit r.Gen.r_part r.Gen.r_spec p)
          | None -> if o.S.status = S.Optimal then [ "optimal without a plan" ] else []
        in
        let cross =
          if not (proved o) then []
          else
            let e =
              Search.Engine.solve
                ~options:{ Search.Engine.default_options with time_limit = Some 10.; optimize_wirelength = false }
                r.Gen.r_part r.Gen.r_spec
            in
            if not e.Search.Engine.optimal then []
            else if e.Search.Engine.wasted <> o.S.wasted then
              [
                Printf.sprintf "wasted frames %s, search engine proves %s"
                  (Option.fold ~none:"none" ~some:string_of_int o.S.wasted)
                  (Option.fold ~none:"infeasible" ~some:string_of_int e.Search.Engine.wasted);
              ]
            else []
        in
        List.map (fun p -> id ^ ": " ^ p) (audit @ cross))
    ops

let inject ops =
  let rec go = function
    | [] -> []
    | ({ o_out = Ok ({ S.plan = Some p; _ } as o); _ } as op) :: rest -> (
      match Checks.overlapping p with
      | Some bad -> { op with o_out = Ok { o with S.plan = Some bad } } :: rest
      | None -> op :: go rest)
    | op :: rest -> op :: go rest
  in
  go ops

let outcomes ops = List.filter_map (fun op -> Result.to_option op.o_out) ops

let run cfg =
  let n = max 3 (int_of_float (rungs_per_second *. cfg.seconds)) in
  let setup, rungs = setup_times (fun () -> Gen.ladder ~seed:cfg.seed ~n) in
  let tail_q, tail_name = Stats.tail n in
  let off = Spans.create ~on:false in
  let t0 = Spans.now () in
  let ops = pass off rungs in
  let pass_s = Spans.now () -. t0 in
  let secs = List.map (fun op -> op.o_secs) ops in
  let outs = outcomes ops in
  let proved_ops = List.filter proved outs in
  let n_proved = List.length proved_ops in
  let e2e =
    e2e ~setup ~pass:pass_s ~lat_tail:(Stats.quantile tail_q secs) ~ok:(Stats.ratio n_proved n)
  in
  let sum f l = List.fold_left (fun a x -> a + f x) 0 l in
  let pivots = sum (fun o -> o.S.simplex_iterations) outs in
  let layer, trace_problems =
    if not cfg.trace then ([], [])
    else begin
      let spans = Spans.create ~on:true in
      let reg = R.create () in
      let (t_ops, tpass), gc_minor, gc_major =
        gc_delta (fun () ->
            let t0 = Spans.now () in
            let ops = pass ~metrics:reg spans rungs in
            (ops, Spans.now () -. t0))
      in
      let touts = outcomes t_ops in
      let phase ps = Stats.sum (List.map (fun o -> phase_seconds o ps) touts) in
      let lp_s = phase [ E.Branch_bound ] in
      let t_nodes = sum (fun o -> o.S.nodes) touts in
      let t_pivots = sum (fun o -> o.S.simplex_iterations) touts in
      let counter name = R.Counter.value (R.counter reg name) in
      let warm = counter "rfloor_lp_warm_starts_total" in
      traced cfg spans
        [
        m "core.build_s" "s" (phase [ E.Build ]);
        m "milp.presolve_s" "s" (phase [ E.Presolve ]);
        m "milp.lp_s" "s" lp_s;
        m "milp.nodes" "count" (float_of_int (sum (fun o -> o.S.nodes) proved_ops));
        m "milp.pivots" "count" (float_of_int (sum (fun o -> o.S.simplex_iterations) proved_ops));
        m "milp.pivots_per_s" "1/s" (Stats.div (float_of_int t_pivots) lp_s);
        m "milp.nodes_per_s" "1/s" (Stats.div (float_of_int t_nodes) lp_s);
        m "milp.factorizations" "count" (float_of_int (counter "rfloor_lp_factorizations_total"));
        m "milp.warm_start_ratio" "ratio"
          (Stats.ratio warm (t_nodes - sum (fun o -> phase_count o E.Root_lp) touts));
        m "milp.minor_words_per_pivot" "words"
          (Stats.div (Stats.sum (List.map (fun op -> op.o_minor) ops)) (float_of_int pivots));
        m "analysis.lint_s" "s" (phase [ E.Lint; E.Audit ]);
        m "gc.minor_words" "words" gc_minor;
        m "gc.major_collections" "count" (float_of_int gc_major);
        m "trace_overhead_ratio" "ratio" (Stats.div tpass pass_s);
      ]
    end
  in
  let ops = if cfg.inject then inject ops else ops in
  let problems = check ops @ trace_problems in
  {
    attempted = n;
    failed = min n (List.length problems);
    problems;
    e2e;
    named =
      [
        m "ladder.total_s" "s" pass_s;
        m "ladder.solve_p50_s" "s" (Stats.median secs);
        m ("ladder.solve_" ^ tail_name ^ "_s") "s" (Stats.quantile tail_q secs);
        m "ladder.proved_ratio" "ratio" (Stats.ratio n_proved n);
      ];
    layer;
    work =
      [
        ("proved", n_proved);
        ("proved_nodes", sum (fun o -> o.S.nodes) proved_ops);
        ("proved_pivots", sum (fun o -> o.S.simplex_iterations) proved_ops);
      ];
  }
