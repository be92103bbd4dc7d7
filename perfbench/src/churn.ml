(* online-churn: seeded arrivals and departures on the FX70T at steady
   occupancy, under the no-break policy: admission into free space,
   else a minimal-move defragmentation schedule, else refusal. *)

open Run
module L = Rfloor_online.Layout
module Df = Rfloor_online.Defrag
module D = Rfloor_diag.Diagnostic

let events_per_second = 600.
let track = 1

type outcome = Admitted | Defragged | Refused | Departed | Skipped

type pass_out = {
  p_secs : float list;  (* per event *)
  p_outcomes : outcome list;
  p_finals : L.t list;
  p_problems : string list;
  p_plans : int;
  p_useful : int;  (* plans that found a move schedule *)
  p_execute : float;
  p_moves : int;
  p_frames : int;
  (* per-call timings and free-rectangle counts, traced pass only *)
  p_place : float list;
  p_remove : float list;
  p_plan : float list;
  p_free_rects : float list;
}

(* One pass; each stream of events starts from an empty layout.  The
   no-break check of each executed schedule runs between events,
   outside the per-event timings that make up the pass time; with
   [inject], the first schedule's result gets one tampered image
   before it is checked. *)
let pass ?(inject = false) spans streams =
  let on = Spans.enabled spans in
  let inject = ref inject in
  let part = Lazy.force Gen.fx70t in
  let place = ref [] and remove = ref [] and plan = ref [] in
  let plans = ref 0 and useful = ref 0 and execute = ref 0. in
  let moves = ref 0 and frames = ref 0 and free_rects = ref [] in
  let problems = ref [] and refused = Hashtbl.create 64 in
  let pending = ref [] in
  (* times a call as a span when tracing, into [acc] *)
  let call name op acc f =
    if not on then f ()
    else begin
      let t0 = Spans.now () in
      let r = f () in
      let t1 = Spans.now () in
      Spans.add spans (Spans.make ~name ~op ~track t0 t1);
      acc := (t1 -. t0) :: !acc;
      r
    end
  in
  let step i layout ev =
    match ev with
    | Gen.Depart name -> (
      match call "online.remove" i remove (fun () -> L.remove layout name) with
      | Ok l -> (l, Departed)
      | Error d ->
        if not (Hashtbl.mem refused name) then
          problems := Printf.sprintf "event %d: departure failed: %s" i d.D.message :: !problems;
        (layout, Skipped))
    | Gen.Arrive (name, demand) -> (
      match call "online.place" i place (fun () -> L.place layout name demand) with
      | Ok (l, _) -> (l, Admitted)
      | Error d when d.D.code <> "RF701" ->
        problems := Printf.sprintf "event %d: arrival failed: %s" i d.D.message :: !problems;
        (layout, Refused)
      | Error _ -> (
        incr plans;
        let refuse () =
          Hashtbl.replace refused name ();
          (layout, Refused)
        in
        match
          call "online.plan" i plan (fun () ->
              Df.plan ~fallback:false layout ~name ~demand)
        with
        | Ok (Df.Moves (schedule, _)) -> (
          incr useful;
          let t0 = Spans.now () in
          let r =
            call "online.execute" i (ref []) (fun () -> Df.execute layout schedule)
          in
          execute := !execute +. (Spans.now () -. t0);
          match r with
          | Error d ->
            problems := Printf.sprintf "event %d: schedule refused: %s" i d.D.message :: !problems;
            refuse ()
          | Ok after -> (
            moves := !moves + List.length schedule;
            frames := List.fold_left (fun a mv -> a + mv.Df.mv_frames) !frames schedule;
            pending := (layout, after, List.map (fun mv -> mv.Df.mv_name) schedule) :: !pending;
            match call "online.place" i place (fun () -> L.place after name demand) with
            | Ok (l, _) -> (l, Defragged)
            | Error d ->
              problems :=
                Printf.sprintf "event %d: admission after defrag failed: %s" i d.D.message
                :: !problems;
              Hashtbl.replace refused name ();
              (after, Refused)))
        | Ok (Df.Admit _ | Df.Fallback _) ->
          problems := Printf.sprintf "event %d: unexpected plan" i :: !problems;
          refuse ()
        | Error _ -> refuse ()))
  in
  let secs = ref [] and outcomes = ref [] in
  let run_stream i events =
    Hashtbl.reset refused;
    List.fold_left
      (fun (i, layout) ev ->
        let t0 = Spans.now () in
        let layout, o = step i layout ev in
        secs := (Spans.now () -. t0) :: !secs;
        List.iter
          (fun (before, after, moved) ->
            let after =
              if not !inject then after
              else
                match Checks.tampered ~after ~moved with
                | Some bad ->
                  inject := false;
                  bad
                | None -> after
            in
            problems := Checks.no_break ~before ~after ~moved @ !problems)
          !pending;
        pending := [];
        outcomes := o :: !outcomes;
        if on then free_rects := float_of_int (List.length (L.free_rects layout)) :: !free_rects;
        (i + 1, layout))
      (i, L.create part) events
  in
  let _, finals =
    List.fold_left
      (fun (i, finals) events ->
        let i, final = run_stream i events in
        (i, final :: finals))
      (0, []) streams
  in
  {
    p_secs = List.rev !secs;
    p_outcomes = List.rev !outcomes;
    p_finals = finals;
    p_problems = List.rev !problems;
    p_plans = !plans;
    p_useful = !useful;
    p_execute = !execute;
    p_moves = !moves;
    p_frames = !frames;
    p_place = !place;
    p_remove = !remove;
    p_plan = !plan;
    p_free_rects = !free_rects;
  }

let check p =
  p.p_problems
  @
  if List.for_all L.check_free_rects p.p_finals then []
  else [ "final layout: free rectangles differ from a recompute" ]

let run cfg =
  let n = max 10 (int_of_float (events_per_second *. cfg.seconds)) in
  (* two thirds of the events replay the anchor stream *)
  let setup, streams =
    setup_times (fun () ->
        let part = Lazy.force Gen.fx70t in
        [ Gen.churn ~seed:Gen.anchor ~n:(n - (n / 3)) part; Gen.churn ~seed:cfg.seed ~n:(n / 3) part ])
  in
  let events = List.concat streams in
  let p = pass ~inject:cfg.inject (Spans.create ~on:false) streams in
  let pass_s = Stats.sum p.p_secs in
  let count o = List.length (List.filter (( = ) o) p.p_outcomes) in
  let arrivals =
    List.length (List.filter (function Gen.Arrive _ -> true | Gen.Depart _ -> false) events)
  in
  let admitted = count Admitted + count Defragged in
  let tail_q, tail_name = Stats.tail n in
  let p50 = Stats.median p.p_secs and tail = Stats.quantile tail_q p.p_secs in
  let e2e = e2e ~setup ~pass:pass_s ~lat_tail:tail ~ok:(Stats.ratio admitted arrivals) in
  let layer, trace_problems =
    if not cfg.trace then ([], [])
    else begin
      let spans = Spans.create ~on:true in
      let tp, gc_minor, gc_major = gc_delta (fun () -> pass spans streams) in
      let tpass = Stats.sum tp.p_secs in
      traced cfg spans
        [
          m "online.admit_s" "s" (Stats.median tp.p_place);
          m "online.remove_s" "s" (Stats.median tp.p_remove);
          m "online.free_rects_mean" "count" (Stats.mean tp.p_free_rects);
          m "online.plan_s" "s" (Stats.median tp.p_plan);
          m "online.plan_useful_ratio" "ratio" (Stats.ratio tp.p_useful tp.p_plans);
          m "online.execute_s_per_move" "s" (Stats.div tp.p_execute (float_of_int tp.p_moves));
          m "online.frames_moved" "count" (float_of_int tp.p_frames);
          m "gc.minor_words" "words" gc_minor;
          m "gc.major_collections" "count" (float_of_int gc_major);
          m "trace_overhead_ratio" "ratio" (Stats.div tpass pass_s);
        ]
    end
  in
  let problems = check p @ trace_problems in
  {
    attempted = n;
    failed = min n (List.length problems);
    problems;
    e2e;
    named =
      [
        m "churn.events_per_s" "1/s" (float_of_int n /. pass_s);
        m "churn.event_p50_s" "s" p50;
        m ("churn.event_" ^ tail_name ^ "_s") "s" tail;
        m "churn.admit_ratio" "ratio" (Stats.ratio admitted arrivals);
      ];
    layer;
    work =
      [
        ("admitted", count Admitted);
        ("defragged", count Defragged);
        ("refused", count Refused);
        ("moves", p.p_moves);
      ];
  }
