(* Benchmark entry point:
     run.sh --workload W --seed N --seconds S --trace 0|1
   Prints each metric as "name value unit", then, as the last line, one
   JSON object {correct, attempted, failed, metrics}.  Exits 1 when an
   output check failed, 2 on a usage or internal error. *)

open Rfbench
module Json = Rfloor_metrics.Json

let usage =
  "run.sh --workload (milp-ladder|service-sdr|online-churn|all) --seed N \
   --seconds S --trace 0|1 [--trace-dir DIR] [--inject-defect]"

let die msg =
  prerr_endline msg;
  exit 2

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let run_workload = function
  | "milp-ladder" -> Ladder.run
  | "service-sdr" -> Svc.run
  | "online-churn" -> Churn.run
  | w -> invalid_arg w

(* The catalogue's metrics, in its order; layers the run did not
   touch read 0. *)
let complete catalogue (ms : Run.metric list) =
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun (x : Run.metric) -> x.Run.name = name) ms with
      | Some x -> x
      | None -> Run.m name unit 0.)
    catalogue

let report ~workload ~cfg (r : Run.result) =
  let line (x : Run.metric) = Printf.printf "%s %s %s\n" x.Run.name (Json.num_to_string x.Run.value) x.Run.unit in
  Printf.printf "# %s seed=%d seconds=%g trace=%b\n" workload cfg.Run.seed cfg.Run.seconds cfg.Run.trace;
  List.iter line r.Run.named;
  line (Run.m "error_ratio" "ratio" (Stats.ratio r.Run.failed r.Run.attempted));
  List.iter (fun (k, v) -> Printf.printf "work.%s %d count\n" k v) r.Run.work;
  let metrics =
    if cfg.Run.trace then complete Catalogue.per_layer r.Run.layer
    else complete Catalogue.end_to_end r.Run.e2e
  in
  List.iter line metrics;
  List.iter (fun p -> prerr_endline ("check failed: " ^ p)) r.Run.problems;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (r.Run.failed = 0));
            ("attempted", Json.Num (float_of_int r.Run.attempted));
            ("failed", Json.Num (float_of_int r.Run.failed));
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (x : Run.metric) ->
                     (x.Run.name, Json.Obj [ ("value", Json.Num x.Run.value); ("unit", Json.Str x.Run.unit) ]))
                   metrics) );
          ]));
  r.Run.failed = 0

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let trace_dir = ref "perfbench/out" and inject = ref false in
  let int_arg r = Arg.Int (fun x -> r := Some x) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W");
      ("--seed", int_arg seed, "N");
      ("--seconds", Arg.Float (fun x -> seconds := Some x), "S");
      ("--trace", int_arg trace, "0|1");
      ("--trace-dir", Arg.Set_string trace_dir, "DIR");
      ("--inject-defect", Arg.Set inject, " seed one defect into the outputs");
    ]
    (fun a -> die ("unexpected argument " ^ a))
    usage;
  let seed = match !seed with Some s -> s | None -> die usage in
  let seconds = match !seconds with Some s when s > 0. -> s | _ -> die usage in
  let trace = match !trace with Some 0 -> false | Some 1 -> true | _ -> die usage in
  let workloads = if !workload = "all" then Catalogue.workloads else [ !workload ] in
  List.iter (fun w -> if not (List.mem w Catalogue.workloads) then die ("unknown workload " ^ w ^ "\n" ^ usage)) workloads;
  mkdir_p !trace_dir;
  let ok =
    List.fold_left
      (fun ok workload ->
        let cfg =
          {
            Run.seed;
            seconds;
            trace;
            inject = !inject;
            trace_file = Filename.concat !trace_dir (Printf.sprintf "%s-%d.trace.json" workload seed);
          }
        in
        let r =
          try run_workload workload cfg
          with e -> die (workload ^ ": " ^ Printexc.to_string e)
        in
        report ~workload ~cfg r && ok)
      true workloads
  in
  exit (if ok then 0 else 1)
