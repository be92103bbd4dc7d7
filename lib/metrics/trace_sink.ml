module T = Rfloor_trace
module E = T.Event

let sink reg =
  if not (Registry.live reg) then T.Sink.null
  else begin
    let counter ?help name = Registry.counter reg ?help name in
    let events =
      counter ~help:"Trace events folded into this registry"
        "rfloor_trace_events_total"
    in
    let nodes =
      counter ~help:"Branch-and-bound nodes explored" "rfloor_nodes_total"
    in
    let incumbents =
      counter ~help:"Incumbent improvements" "rfloor_incumbents_total"
    in
    let incumbent_obj =
      Registry.gauge reg ~help:"Objective of the latest incumbent"
        "rfloor_incumbent_objective"
    in
    let incumbent_at =
      Registry.histogram reg
        ~help:"Seconds from solve start to each incumbent improvement"
        "rfloor_incumbent_seconds"
    in
    let steals = counter ~help:"Donation events" "rfloor_steals_total" in
    let steal_tasks =
      counter ~help:"Subproblems donated to the shared deque"
        "rfloor_steal_tasks_total"
    in
    let steal_latency =
      Registry.histogram reg
        ~help:"Idle-to-next-node latency per starved worker"
        ~buckets:[| 1e-5; 1e-4; 1e-3; 0.01; 0.1; 1.; 10. |]
        "rfloor_steal_latency_seconds"
    in
    let cuts =
      counter ~help:"Cut rows added (model-build symmetry/packing and root Gomory)"
        "rfloor_cuts_total"
    in
    let idle = counter ~help:"Worker idle transitions" "rfloor_idle_total" in
    let restarts =
      counter ~help:"Optimization stage restarts" "rfloor_restarts_total"
    in
    let stops =
      counter ~help:"Early solver stops (cancel or budget)"
        "rfloor_stops_total"
    in
    let warnings = counter ~help:"Warning events" "rfloor_warnings_total" in
    let refactors =
      counter ~help:"LP basis refactorizations seen in the trace"
        "rfloor_trace_lp_refactor_total"
    in
    let warm_events =
      counter ~help:"Warm-started LP re-solves seen in the trace"
        "rfloor_trace_lp_warm_total"
    in
    let moves =
      counter ~help:"Online relocation moves seen in the trace"
        "rfloor_trace_moves_total"
    in
    (* per-phase histograms and per-worker counters, created on first
       sight; the tables below are only touched under the sink mutex *)
    let phase_hist : (E.phase, Registry.Histogram.t) Hashtbl.t =
      Hashtbl.create 8
    in
    let phase_histogram phase =
      match Hashtbl.find_opt phase_hist phase with
      | Some h -> h
      | None ->
        let h =
          Registry.histogram reg ~help:"Wall time per solver phase span"
            ~labels:[ ("phase", E.phase_name phase) ]
            "rfloor_phase_seconds"
        in
        Hashtbl.add phase_hist phase h;
        h
    in
    let worker_nodes : (int, Registry.Counter.t) Hashtbl.t = Hashtbl.create 8 in
    let worker_counter w =
      match Hashtbl.find_opt worker_nodes w with
      | Some c -> c
      | None ->
        let c =
          Registry.counter reg ~help:"Nodes explored per worker"
            ~labels:[ ("worker", string_of_int w) ]
            "rfloor_worker_nodes_total"
        in
        Hashtbl.add worker_nodes w c;
        c
    in
    let open_spans : (int * E.phase, float) Hashtbl.t = Hashtbl.create 8 in
    let idle_since : (int, float) Hashtbl.t = Hashtbl.create 8 in
    T.Sink.of_fn (fun (e : E.t) ->
        Registry.Counter.incr events;
        match e.E.payload with
        | E.Span_start phase -> Hashtbl.replace open_spans (e.E.worker, phase) e.E.at
        | E.Span_end phase -> (
          let k = (e.E.worker, phase) in
          match Hashtbl.find_opt open_spans k with
          | Some t0 ->
            Hashtbl.remove open_spans k;
            Registry.Histogram.observe (phase_histogram phase)
              (max 0. (e.E.at -. t0))
          | None -> ())
        | E.Node_explored _ ->
          Registry.Counter.incr nodes;
          Registry.Counter.incr (worker_counter e.E.worker);
          (match Hashtbl.find_opt idle_since e.E.worker with
          | Some t0 ->
            Hashtbl.remove idle_since e.E.worker;
            Registry.Histogram.observe steal_latency (max 0. (e.E.at -. t0))
          | None -> ())
        | E.Incumbent { objective; _ } ->
          Registry.Counter.incr incumbents;
          Registry.Gauge.set incumbent_obj objective;
          Registry.Histogram.observe incumbent_at e.E.at
        | E.Cut_added { cuts = c; _ } -> Registry.Counter.add cuts c
        | E.Steal { tasks } ->
          Registry.Counter.incr steals;
          Registry.Counter.add steal_tasks tasks
        | E.Worker_idle ->
          Registry.Counter.incr idle;
          Hashtbl.replace idle_since e.E.worker e.E.at
        | E.Restart _ -> Registry.Counter.incr restarts
        | E.Stopped _ -> Registry.Counter.incr stops
        | E.Lp_refactor _ -> Registry.Counter.incr refactors
        | E.Lp_warm _ -> Registry.Counter.incr warm_events
        | E.Move _ -> Registry.Counter.incr moves
        | E.Warning _ -> Registry.Counter.incr warnings
        | E.Message _ -> ())
  end
