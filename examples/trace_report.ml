(* Observability walkthrough: watch a MILP solve through the typed
   event stream, then read the aggregated phase/worker report.

     dune exec examples/trace_report.exe

   Three sinks are demonstrated:
     - an in-memory ring buffer, inspected after the solve;
     - a JSONL file, validated with Rfloor_trace.validate_jsonl;
     - the report attached to every Solver.outcome, a fold of the
       same event stream that is kept even when no sink is connected. *)

open Device

let spec =
  Spec.make ~name:"trace-demo"
    ~nets:(Spec.chain_nets ~weight:16. [ "filter"; "decoder" ])
    ~relocs:[ { Spec.target = "filter"; copies = 1; mode = Spec.Hard } ]
    [
      { Spec.r_name = "filter"; demand = [ (Resource.Clb, 2); (Resource.Bram, 1) ] };
      { Spec.r_name = "decoder"; demand = [ (Resource.Clb, 2); (Resource.Dsp, 1) ] };
    ]

let () =
  let part = Partition.columnar_exn Devices.mini in

  (* 1. Ring-buffer sink: capture every event in memory. *)
  let ring = Rfloor_trace.Ring.create ~capacity:4096 () in
  let options =
    Rfloor.Solver.Options.make ~time_limit:30.
      ~trace:(Rfloor_trace.Ring.sink ring) ()
  in
  let outcome = Rfloor.Solver.solve ~options part spec in
  let events = Rfloor_trace.Ring.events ring in
  Format.printf "solve finished: %a@." Rfloor.Solver.pp_outcome outcome;
  Format.printf "captured %d events (%d dropped)@." (List.length events)
    (Rfloor_trace.Ring.dropped ring);
  let incumbents =
    List.filter
      (fun (e : Rfloor_trace.Event.t) ->
        match e.Rfloor_trace.Event.payload with
        | Rfloor_trace.Event.Incumbent _ -> true
        | _ -> false)
      events
  in
  Format.printf "incumbent improvements:@.";
  List.iter
    (fun e -> Format.printf "  %a@." Rfloor_trace.Event.pp e)
    incumbents;

  (* 2. The aggregated report: phase timings, per-worker node counts.
     It folds the events the ring captured, so its counts match them;
     its totals equal outcome.nodes / simplex_iterations / elapsed. *)
  let report = outcome.Rfloor.Solver.report in
  Format.printf "@.%a@." Rfloor_trace.Report.pp report;
  assert (report.Rfloor_trace.Report.nodes = outcome.Rfloor.Solver.nodes);
  assert (report.Rfloor_trace.Report.incumbents = List.length incumbents);

  (* 3. JSONL sink: stream events to a file, then validate the schema
     and span balance — the same check `rfloor trace-validate` runs. *)
  let path = Filename.temp_file "rfloor_trace" ".jsonl" in
  let sink, close = Rfloor_trace.Sink.jsonl_file path in
  let opts2 =
    Rfloor.Solver.Options.make ~time_limit:30. ~trace:sink ()
  in
  ignore (Rfloor.Solver.solve ~options:opts2 part spec);
  close ();
  let contents =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  (match Rfloor_trace.validate_jsonl contents with
  | Ok n -> Format.printf "@.%s: %d events, schema valid@." path n
  | Error e -> Format.printf "@.%s: INVALID: %s@." path e);
  Sys.remove path
