(* Smoke self-test of the benchmark: tiny sizes of every workload,
   traced and untraced; every metric BENCHMARK.json names must be
   printed with its unit, outputs must check clean, and the span file
   must pass the Perfetto validator.  Then one seeded defect per
   workload (an overlapping plan, a tampered relocated image) must
   make error_ratio positive and the exit code non-zero.

   Usage: smoke.exe MAIN_EXE BENCHMARK_JSON *)

module Json = Rfloor_metrics.Json

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      prerr_endline ("FAIL " ^ s))
    fmt

let ok r = match r with Ok x -> x | Error e -> failwith e

let run exe args =
  let cmd = Filename.quote_command exe args in
  let ic = Unix.open_process_in cmd in
  let out = In_channel.input_all ic in
  let code = match Unix.close_process_in ic with Unix.WEXITED c -> c | _ -> -1 in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' out) in
  (code, lines)

let result lines = ok (Json.parse (List.nth lines (List.length lines - 1)))

let catalogue bench key =
  List.map
    (fun m -> (ok (Json.get_string "name" m), ok (Json.get_string "unit" m)))
    (ok (Json.get_arr key bench))

let error_ratio lines =
  List.find_map
    (fun l ->
      match String.split_on_char ' ' l with
      | [ "error_ratio"; v; "ratio" ] -> float_of_string_opt v
      | _ -> None)
    lines

let () =
  let exe = Sys.argv.(1) in
  let bench = ok (Json.parse (In_channel.with_open_bin Sys.argv.(2) In_channel.input_all)) in
  let workloads =
    List.map (fun w -> ok (Json.get_string "name" w)) (ok (Json.get_arr "workloads" bench))
  in
  let dir = "smoke-out" in
  let args w ~seconds ~trace extra =
    [ "--workload"; w; "--seed"; "7"; "--seconds"; seconds; "--trace"; trace; "--trace-dir"; dir ]
    @ extra
  in
  List.iter
    (fun w ->
      List.iter
        (fun (trace, key) ->
          let code, lines = run exe (args w ~seconds:"0.5" ~trace []) in
          let r = result lines in
          if code <> 0 then fail "%s trace=%s: exit %d" w trace code;
          if Json.member "correct" r <> Some (Json.Bool true) then fail "%s trace=%s: not correct" w trace;
          if ok (Json.get_int "failed" r) <> 0 then fail "%s trace=%s: failed > 0" w trace;
          if error_ratio lines <> Some 0. then fail "%s trace=%s: error_ratio not printed as 0" w trace;
          let metrics = Option.get (Json.member "metrics" r) in
          List.iter
            (fun (name, unit) ->
              match Json.member name metrics with
              | None -> fail "%s trace=%s: metric %s missing" w trace name
              | Some m ->
                if ok (Json.get_string "unit" m) <> unit then fail "%s: %s has the wrong unit" w name;
                ignore (ok (Json.get_num "value" m));
                if not (List.exists (fun l -> String.starts_with ~prefix:(name ^ " ") l && String.ends_with ~suffix:(" " ^ unit) l) lines)
                then fail "%s trace=%s: %s not printed with its unit" w trace name)
            (catalogue bench key);
          if trace = "1" then begin
            let file = Filename.concat dir (Printf.sprintf "%s-7.trace.json" w) in
            match Rfloor_obsv.Perfetto.validate (In_channel.with_open_bin file In_channel.input_all) with
            | Ok () -> ()
            | Error e -> fail "%s: span file rejected: %s" w e
          end)
        [ ("0", "end_to_end"); ("1", "per_layer") ];
      let code, lines = run exe (args w ~seconds:"1" ~trace:"0" [ "--inject-defect" ]) in
      let r = result lines in
      if code = 0 then fail "%s: seeded defect left exit code 0" w;
      if ok (Json.get_int "failed" r) = 0 then fail "%s: seeded defect not caught" w;
      match error_ratio lines with
      | Some e when e > 0. -> ()
      | _ -> fail "%s: seeded defect left error_ratio at 0" w)
    workloads;
  if !failures > 0 then exit 1;
  print_endline "perfbench smoke: ok"
