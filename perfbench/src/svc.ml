(* service-sdr: two callers in a closed loop, each waiting for its
   reply, against one pool worker; requests are Zipf-drawn SDR variants
   on the FX70T under the combinatorial strategy and a deadline. *)

open Run
module S = Rfloor.Solver
module Pool = Rfloor_service.Pool
module E = Rfloor_trace.Event

let deadline = 0.5
let hot = 24
let cold_every = 10
let requests_per_second = 10.
let worker_track = 100

type op = {
  o_index : int;
  o_req : Gen.request;
  o_res : Pool.result;
  o_secs : float;  (* caller-side latency *)
  o_ticket : int;
  o_phases : Spans.Phases.t;
}

let phase_layer = function
  | E.Lint | E.Audit -> "analysis"
  | E.Branch_bound -> "search"
  | E.Job -> "service"
  | E.Build | E.Decode | E.Presolve | E.Root_lp | E.Lp_solve -> "core"

let options ?(trace = Rfloor_trace.Sink.null) (v : Gen.variant) =
  S.Options.make
    ~strategy:(S.Strategy.combinatorial ())
    ~objective_mode:(if v.Gen.v_lex then S.Lexicographic else S.Feasibility_only)
    ~time_limit:infinity ~trace ()

let solved = function
  | Pool.Completed s | Pool.Stopped (s, _) -> Some s
  | Pool.Failed _ -> None

let rec zip a b =
  match (a, b) with x :: a, y :: b -> (x, y) :: zip a b | _ -> []

(* One pass from a fresh pool, so from an empty cache; the ops come
   back in request order.  With [spans] enabled, each request is a
   "service.request" span on its caller's track, preceded by a timed
   "service.canonical" probe, and each pool job a "service.job" span on
   the worker's track holding the solver's phases. *)
let pass spans reqs =
  let reqs = Array.of_list reqs in
  let n = Array.length reqs in
  let on = Spans.enabled spans in
  let jobs = Spans.Phases.create () in
  let trace =
    if on then Rfloor_trace.create ~sink:(Spans.Phases.sink jobs) ()
    else Rfloor_trace.disabled
  in
  let pool = Pool.create ~workers:1 ~trace () in
  let part = Lazy.force Gen.fx70t in
  let next = Atomic.make 0 in
  let out = Array.make n None in
  let caller track () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let q = reqs.(i) in
        if on then
          ignore
            (Spans.timed spans ~name:"service.canonical" ~op:i ~track (fun () ->
                 Rfloor_service.Canonical.of_instance part q.Gen.q_spec));
        let phases = Spans.Phases.create () in
        let trace = if on then Spans.Phases.sink phases else Rfloor_trace.Sink.null in
        let t0 = Spans.now () in
        let ticket =
          Pool.submit pool ~deadline ~options:(options ~trace q.Gen.q_variant) part
            q.Gen.q_spec
        in
        let res = Pool.await pool ticket in
        let t1 = Spans.now () in
        if on then Spans.add spans (Spans.make ~name:"service.request" ~op:i ~track t0 t1);
        out.(i) <-
          Some
            { o_index = i; o_req = q; o_res = res; o_secs = t1 -. t0; o_ticket = ticket;
              o_phases = phases };
        loop ()
      end
    in
    loop ()
  in
  let other = Domain.spawn (caller 2) in
  caller 1 ();
  Domain.join other;
  Pool.shutdown pool;
  let ops = Array.to_list (Array.map Option.get out) in
  (* the single worker claims jobs in ticket order, so the k-th Job
     span belongs to the k-th ticket *)
  let job_secs = Hashtbl.create n in
  if on then begin
    let by_ticket = List.sort (fun a b -> compare a.o_ticket b.o_ticket) ops in
    let js =
      List.sort
        (fun a b -> compare a.Spans.s_t0 b.Spans.s_t0)
        (Spans.Phases.spans jobs ~layer:phase_layer ~op:0 ~track:worker_track)
    in
    List.iter
      (fun (op, (j : Spans.span)) ->
        Hashtbl.replace job_secs op.o_index (Spans.duration j);
        Spans.add spans
          (Spans.make ~name:"service.job" ~op:op.o_index ~track:worker_track j.Spans.s_t0
             j.Spans.s_t1
             ~children:
               (Spans.Phases.spans op.o_phases ~layer:phase_layer ~op:op.o_index
                  ~track:worker_track)))
      (zip by_ticket js)
  end;
  (ops, job_secs)

(* Every plan passes the audit, and all completed answers for one
   canonical instance and objective agree, cache hits included. *)
let check ops =
  let part = Lazy.force Gen.fx70t in
  let first = Hashtbl.create 64 in
  List.concat_map
    (fun op ->
      let id = Printf.sprintf "request %d" op.o_index in
      match op.o_res with
      | Pool.Failed e -> [ id ^ ": failed: " ^ e ]
      | Pool.Stopped (s, _) -> (
        match s.Pool.outcome.S.plan with
        | Some p -> Option.to_list (Checks.audit part op.o_req.Gen.q_spec p)
        | None -> [])
      | Pool.Completed s -> (
        let o = s.Pool.outcome in
        let audit =
          match o.S.plan with
          | Some p -> Option.to_list (Checks.audit part op.o_req.Gen.q_spec p)
          | None -> []
        in
        let key = (s.Pool.key, op.o_req.Gen.q_variant.Gen.v_lex) in
        let answer = (o.S.status, o.S.wasted) in
        match Hashtbl.find_opt first key with
        | None ->
          Hashtbl.add first key (op.o_index, answer);
          List.map (fun p -> id ^ ": " ^ p) audit
        | Some (j, a) ->
          List.map (fun p -> id ^ ": " ^ p) audit
          @ (if a = answer then []
             else [ Printf.sprintf "%s disagrees with request %d on the same instance" id j ])))
    ops

let inject ops =
  let rec go = function
    | [] -> []
    | ({ o_res = Pool.Completed ({ Pool.outcome = { S.plan = Some p; _ } as o; _ } as s); _ } as op)
      :: rest -> (
      match Checks.overlapping p with
      | Some bad ->
        { op with o_res = Pool.Completed { s with Pool.outcome = { o with S.plan = Some bad } } }
        :: rest
      | None -> op :: go rest)
    | op :: rest -> op :: go rest
  in
  go ops

let is_hit op =
  match op.o_res with Pool.Completed { Pool.source = Pool.Cache_hit; _ } -> true | _ -> false

let is_stop op = match op.o_res with Pool.Stopped _ -> true | _ -> false

let met op =
  match op.o_res with Pool.Completed s -> s.Pool.waited <= deadline | _ -> false

let run cfg =
  let n = max 4 (int_of_float (requests_per_second *. cfg.seconds)) in
  let setup, reqs =
    setup_times (fun () ->
        Gen.requests ~seed:cfg.seed ~hot:(Gen.hot_variants ~seed:cfg.seed ~n:hot) ~cold_every ~n)
  in
  let t0 = Spans.now () in
  let ops, _ = pass (Spans.create ~on:false) reqs in
  let pass_s = Spans.now () -. t0 in
  let secs = List.map (fun op -> op.o_secs) ops in
  let n_met = List.length (List.filter met ops) in
  let hits = List.length (List.filter is_hit ops) in
  let stops = List.length (List.filter is_stop ops) in
  let tail_q, tail_name = Stats.tail n in
  let p50 = Stats.median secs and tail = Stats.quantile tail_q secs in
  let e2e = e2e ~setup ~pass:pass_s ~lat_tail:tail ~ok:(Stats.ratio n_met n) in
  let layer, trace_problems =
    if not cfg.trace then ([], [])
    else begin
      let spans = Spans.create ~on:true in
      let ((t_ops, job_secs), tpass), gc_minor, gc_major =
        gc_delta (fun () ->
            let t0 = Spans.now () in
            let r = pass spans reqs in
            (r, Spans.now () -. t0))
      in
      let canon =
        List.filter_map
          (fun (s : Spans.span) ->
            if s.Spans.s_name = "service.canonical" then Some (Spans.duration s) else None)
          spans.Spans.roots
      in
      let queue_waits =
        List.filter_map
          (fun op ->
            match (solved op.o_res, Hashtbl.find_opt job_secs op.o_index) with
            | Some s, Some j -> Some (Float.max 0. (s.Pool.waited -. j))
            | _ -> None)
          t_ops
      in
      let misses =
        List.filter_map
          (fun op ->
            match op.o_res with
            | Pool.Completed ({ Pool.source = Pool.Solved | Pool.Warm_start; _ } as s) ->
              Some s.Pool.outcome
            | _ -> None)
          t_ops
      in
      let search_secs = List.map (fun o -> phase_seconds o [ E.Branch_bound ]) misses in
      let miss_nodes = List.fold_left (fun a (o : S.outcome) -> a + o.S.nodes) 0 misses in
      let overruns =
        List.filter_map
          (fun op ->
            match op.o_res with
            | Pool.Stopped (s, "deadline") -> Some (s.Pool.waited -. deadline)
            | _ -> None)
          t_ops
      in
      let lint =
        Stats.sum
          (List.filter_map
             (fun op -> Option.map (fun s -> phase_seconds s.Pool.outcome [ E.Lint; E.Audit ]) (solved op.o_res))
             t_ops)
      in
      traced cfg spans
        [
          m "service.canonical_s" "s" (Stats.median canon);
          m "service.cache_hit_ratio" "ratio" (Stats.ratio (List.length (List.filter is_hit t_ops)) n);
          m "service.queue_wait_s" "s" (Stats.quantile 0.95 queue_waits);
          m "search.solve_s" "s" (Stats.median search_secs);
          m "search.nodes_per_s" "1/s" (Stats.div (float_of_int miss_nodes) (Stats.sum search_secs));
          m "search.deadline_overrun_p50_s" "s" (Stats.median overruns);
          m "search.deadline_overrun_max_s" "s" (Stats.maximum overruns);
          m "analysis.lint_s" "s" lint;
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
        m "svc.throughput_rps" "1/s" (float_of_int n /. pass_s);
        m "svc.latency_p50_s" "s" p50;
        m ("svc.latency_" ^ tail_name ^ "_s") "s" tail;
        m "svc.latency_samples" "count" (float_of_int n);
        m "svc.deadline_met_ratio" "ratio" (Stats.ratio n_met n);
      ];
    layer;
    work = [ ("hits", hits); ("stops", stops) ];
  }
