(* What every workload takes and returns. *)

type cfg = {
  seed : int;
  seconds : float;  (** sizes the seeded operation list *)
  trace : bool;  (** add the traced pass and its per-layer metrics *)
  inject : bool;  (** seed one defect into the outputs before checking *)
  trace_file : string;  (** where the traced pass's spans are written *)
}

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

type result = {
  attempted : int;  (** operations in the untraced pass *)
  failed : int;  (** failed output checks and exceptions *)
  problems : string list;  (** one line per failure, for stderr *)
  e2e : metric list;  (** the end-to-end metrics, generic names *)
  named : metric list;  (** the same figures under the workload's own names *)
  layer : metric list;  (** per-layer metrics of the traced pass *)
  work : (string * int) list;  (** work counts that repeat per seed *)
}

(* Set-up cost: the median of 15 samples, each the mean of as many
   fresh set-ups as fit in 20 ms, after 100 ms of untimed warm-up.  One
   set-up takes 1-10 ms, and right after process start a sample that
   short moves by a third with the clock speed. *)
let setup_times f =
  let x = f () in
  let until span g =
    let t0 = Spans.now () in
    let rec go k =
      ignore (Sys.opaque_identity (g ()));
      let dt = Spans.now () -. t0 in
      if dt >= span then dt /. float_of_int k else go (k + 1)
    in
    go 1
  in
  ignore (until 0.1 f);
  (Stats.median (List.init 15 (fun _ -> until 0.02 f)), x)

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* The end-to-end metrics shared by all workloads.  Median latencies
   are printed under the workloads' own names only: the service's
   median request is a cache hit, two domain wake-ups that move by
   ±25 % between runs of one binary on a 2-core box. *)
let e2e ~setup ~pass ~lat_tail ~ok =
  [
    m "setup_s" "s" setup;
    m "pass_s" "s" pass;
    m "op_tail_s" "s" lat_tail;
    m "ok_ratio" "ratio" ok;
    m "top_heap_mb" "MB" (top_heap_mb ());
  ]

(* GC work of a thunk on the calling domain. *)
let gc_delta f =
  let s0 = Gc.quick_stat () in
  let r = f () in
  let s1 = Gc.quick_stat () in
  ( r,
    s1.Gc.minor_words -. s0.Gc.minor_words,
    s1.Gc.major_collections - s0.Gc.major_collections )

(* Seconds and span count the solver's own report books for [phases]. *)
let phase_seconds (o : Rfloor.Solver.outcome) phases =
  List.fold_left
    (fun a (p : Rfloor_trace.Report.phase_stat) ->
      if List.mem p.Rfloor_trace.Report.ps_phase phases then a +. p.ps_seconds else a)
    0. o.Rfloor.Solver.report.Rfloor_trace.Report.phases

let phase_count (o : Rfloor.Solver.outcome) phase =
  List.fold_left
    (fun a (p : Rfloor_trace.Report.phase_stat) ->
      if p.Rfloor_trace.Report.ps_phase = phase then a + p.ps_count else a)
    0 o.Rfloor.Solver.report.Rfloor_trace.Report.phases

let layers = [ "core"; "analysis"; "milp"; "search"; "service"; "online" ]

(* Writes the spans, checks the file with the Perfetto validator, and
   adds each layer's self time, read back from the file, to the
   workload's own per-layer metrics.  A rejected file is a failed
   check. *)
let traced cfg spans metrics =
  let text = Spans.to_chrome spans in
  Out_channel.with_open_bin cfg.trace_file (fun oc -> output_string oc text);
  let text = In_channel.with_open_bin cfg.trace_file In_channel.input_all in
  let selfs =
    match Rfloor_obsv.Perfetto.validate text with
    | Error e -> Error ("span file rejected: " ^ e)
    | Ok () -> Spans.self_times text
  in
  let self l =
    match selfs with
    | Ok s -> Option.value ~default:0. (List.assoc_opt l s)
    | Error _ -> 0.
  in
  ( metrics @ List.map (fun l -> m (l ^ ".self_s") "s" (self l)) layers,
    match selfs with Error e -> [ e ] | Ok _ -> [] )
