(* Structured solver observability: typed events, pluggable sinks,
   and a report that folds the events a tracer emits.  See
   rfloor_trace.mli for the cost model.  All
   synchronization goes through the instrumented Rfloor_sync layer so
   the concheck race detector can observe it. *)

module Sync = Rfloor_sync

let clock_ns () = Monotonic_clock.now ()

(* ------------------------------------------------------------------ *)
(* Events *)

module Event = struct
  type phase =
    | Build
    | Presolve
    | Lint
    | Root_lp
    | Branch_bound
    | Decode
    | Audit
    | Lp_solve
    | Job

  type payload =
    | Span_start of phase
    | Span_end of phase
    | Node_explored of { depth : int; bound : float; iters : int }
    | Incumbent of { objective : float; node : int }
    | Cut_added of { rounds : int; cuts : int }
    | Steal of { tasks : int }
    | Worker_idle
    | Restart of { stage : string }
    | Stopped of { reason : string }
    | Lp_refactor of { reason : string }
    | Lp_warm of { fallback : string option }
    | Lp_solved of { iters : int; updates : int; seconds : float }
    | Presolved of { rounds : int; changes : int; infeasible : bool }
    | Move of { module_name : string; src : string; dst : string }
    | Warning of string
    | Message of string

  type t = { at : float; worker : int; payload : payload }

  let phases =
    [ Build; Presolve; Lint; Root_lp; Branch_bound; Decode; Audit; Lp_solve;
      Job ]

  let phase_name = function
    | Build -> "build"
    | Presolve -> "presolve"
    | Lint -> "lint"
    | Root_lp -> "root_lp"
    | Branch_bound -> "branch_bound"
    | Decode -> "decode"
    | Audit -> "audit"
    | Lp_solve -> "lp_solve"
    | Job -> "job"

  let phase_of_name s =
    List.find_opt (fun p -> String.equal (phase_name p) s) phases

  let name = function
    | Span_start _ -> "span_start"
    | Span_end _ -> "span_end"
    | Node_explored _ -> "node"
    | Incumbent _ -> "incumbent"
    | Cut_added _ -> "cut"
    | Steal _ -> "steal"
    | Worker_idle -> "idle"
    | Restart _ -> "restart"
    | Stopped _ -> "stopped"
    | Lp_refactor _ -> "refactor"
    | Lp_warm _ -> "warm"
    | Lp_solved _ -> "lp"
    | Presolved _ -> "presolve"
    | Move _ -> "move"
    | Warning _ -> "warning"
    | Message _ -> "message"

  let pp_payload ppf = function
    | Span_start p -> Format.fprintf ppf "begin %s" (phase_name p)
    | Span_end p -> Format.fprintf ppf "end %s" (phase_name p)
    | Node_explored { depth; bound; _ } ->
      if Float.is_finite bound then
        Format.fprintf ppf "node depth=%d bound=%.6g" depth bound
      else Format.fprintf ppf "node depth=%d" depth
    | Incumbent { objective; node } ->
      Format.fprintf ppf "incumbent %.6f (node %d)" objective node
    | Cut_added { rounds; cuts } ->
      Format.fprintf ppf "cuts: %d rows, %d rounds" cuts rounds
    | Steal { tasks } -> Format.fprintf ppf "donated %d open subproblems" tasks
    | Worker_idle -> Format.fprintf ppf "idle"
    | Restart { stage } -> Format.fprintf ppf "restart: %s" stage
    | Stopped { reason } -> Format.fprintf ppf "stopped: %s" reason
    | Lp_refactor { reason } -> Format.fprintf ppf "lp refactorize: %s" reason
    | Lp_warm { fallback = None } -> Format.fprintf ppf "lp warm start: dual"
    | Lp_warm { fallback = Some reason } ->
      Format.fprintf ppf "lp warm start: fallback (%s)" reason
    | Lp_solved { iters; updates; seconds } ->
      Format.fprintf ppf "lp solved: %d iterations, %d updates, %.6fs" iters
        updates seconds
    | Presolved { rounds; changes; infeasible } ->
      Format.fprintf ppf "presolve: %d bound changes, %d rounds%s" changes
        rounds (if infeasible then ", proven infeasible" else "")
    | Move { module_name; src; dst } ->
      Format.fprintf ppf "move %s: %s -> %s" module_name src dst
    | Warning msg -> Format.fprintf ppf "warning: %s" msg
    | Message msg -> Format.fprintf ppf "%s" msg

  let pp ppf e =
    Format.fprintf ppf "[w%d +%.4fs] %a" e.worker e.at pp_payload e.payload

  (* ---- JSONL ---- *)

  let json_escape s =
    let b = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let json_float f =
    if Float.is_finite f then Printf.sprintf "%.9g" f else "null"

  let to_json e =
    let common = Printf.sprintf "\"t\":%.6f,\"w\":%d" e.at e.worker in
    let tail =
      match e.payload with
      | Span_start p | Span_end p ->
        Printf.sprintf ",\"phase\":\"%s\"" (phase_name p)
      | Node_explored { depth; bound; iters } ->
        if iters > 0 then
          Printf.sprintf ",\"depth\":%d,\"bound\":%s,\"iters\":%d" depth
            (json_float bound) iters
        else Printf.sprintf ",\"depth\":%d,\"bound\":%s" depth (json_float bound)
      | Incumbent { objective; node } ->
        Printf.sprintf ",\"obj\":%s,\"node\":%d" (json_float objective) node
      | Cut_added { rounds; cuts } ->
        Printf.sprintf ",\"rounds\":%d,\"cuts\":%d" rounds cuts
      | Steal { tasks } -> Printf.sprintf ",\"tasks\":%d" tasks
      | Worker_idle -> ""
      | Restart { stage } -> Printf.sprintf ",\"stage\":\"%s\"" (json_escape stage)
      | Stopped { reason } | Lp_refactor { reason } ->
        Printf.sprintf ",\"reason\":\"%s\"" (json_escape reason)
      | Lp_warm { fallback = None } -> ",\"result\":\"dual\""
      | Lp_warm { fallback = Some reason } ->
        Printf.sprintf ",\"result\":\"fallback\",\"reason\":\"%s\""
          (json_escape reason)
      | Lp_solved { iters; updates; seconds } ->
        Printf.sprintf ",\"iters\":%d,\"updates\":%d,\"seconds\":%s" iters
          updates (json_float seconds)
      | Presolved { rounds; changes; infeasible } ->
        Printf.sprintf ",\"rounds\":%d,\"changes\":%d,\"infeasible\":%b"
          rounds changes infeasible
      | Move { module_name; src; dst } ->
        Printf.sprintf ",\"module\":\"%s\",\"src\":\"%s\",\"dst\":\"%s\""
          (json_escape module_name) (json_escape src) (json_escape dst)
      | Warning msg | Message msg ->
        Printf.sprintf ",\"msg\":\"%s\"" (json_escape msg)
    in
    Printf.sprintf "{%s,\"ev\":\"%s\"%s}" common (name e.payload) tail

  (* ---- minimal JSON-object parser for validation ---- *)

  type jv = Num of float | Str of string | Null | Bool of bool

  exception Bad of string

  let parse_object line =
    let n = String.length line in
    let pos = ref 0 in
    let peek () = if !pos < n then Some line.[!pos] else None in
    let skip_ws () =
      while
        !pos < n
        && (match line.[!pos] with ' ' | '\t' | '\r' | '\n' -> true | _ -> false)
      do
        incr pos
      done
    in
    let expect c =
      skip_ws ();
      match peek () with
      | Some c' when c' = c -> incr pos
      | Some c' -> raise (Bad (Printf.sprintf "expected %c, got %c" c c'))
      | None -> raise (Bad (Printf.sprintf "expected %c, got end of line" c))
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then raise (Bad "unterminated string");
        let c = line.[!pos] in
        incr pos;
        if c = '"' then Buffer.contents b
        else if c = '\\' then begin
          if !pos >= n then raise (Bad "dangling escape");
          let e = line.[!pos] in
          incr pos;
          (match e with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
            if !pos + 4 > n then raise (Bad "truncated \\u escape");
            let hex = String.sub line !pos 4 in
            pos := !pos + 4;
            let code =
              try int_of_string ("0x" ^ hex)
              with _ -> raise (Bad "bad \\u escape")
            in
            if code < 0x80 then Buffer.add_char b (Char.chr code)
            else Buffer.add_char b '?'
          | _ -> raise (Bad "unknown escape"));
          go ()
        end
        else begin
          Buffer.add_char b c;
          go ()
        end
      in
      go ()
    in
    let parse_value () =
      skip_ws ();
      match peek () with
      | Some '"' -> Str (parse_string ())
      | Some ('t' | 'f' | 'n') ->
        let kw k v =
          let l = String.length k in
          if !pos + l <= n && String.sub line !pos l = k then begin
            pos := !pos + l;
            v
          end
          else raise (Bad "bad literal")
        in
        if line.[!pos] = 't' then kw "true" (Bool true)
        else if line.[!pos] = 'f' then kw "false" (Bool false)
        else kw "null" Null
      | Some _ ->
        let start = !pos in
        while
          !pos < n
          &&
          match line.[!pos] with
          | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
          | _ -> false
        do
          incr pos
        done;
        if !pos = start then raise (Bad "expected a value");
        let s = String.sub line start (!pos - start) in
        (match float_of_string_opt s with
        | Some f -> Num f
        | None -> raise (Bad (Printf.sprintf "bad number %S" s)))
      | None -> raise (Bad "expected a value, got end of line")
    in
    try
      expect '{';
      skip_ws ();
      let fields = ref [] in
      (match peek () with
      | Some '}' -> incr pos
      | _ ->
        let rec pairs () =
          skip_ws ();
          let k = parse_string () in
          expect ':';
          let v = parse_value () in
          if List.mem_assoc k !fields then
            raise (Bad (Printf.sprintf "duplicate field %S" k));
          fields := (k, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' -> incr pos; pairs ()
          | Some '}' -> incr pos
          | _ -> raise (Bad "expected , or }")
        in
        pairs ());
      skip_ws ();
      if !pos <> n then raise (Bad "trailing characters after object");
      Ok (List.rev !fields)
    with Bad m -> Error m

  let of_json line =
    match parse_object line with
    | Error m -> Error m
    | Ok fields -> (
      let take seen k =
        seen := k :: !seen;
        List.assoc_opt k fields
      in
      let seen = ref [] in
      let num k =
        match take seen k with
        | Some (Num f) -> Ok f
        | Some _ -> Error (Printf.sprintf "field %S must be a number" k)
        | None -> Error (Printf.sprintf "missing field %S" k)
      in
      let int_ k =
        match num k with
        | Error _ as e -> e
        | Ok f ->
          if Float.is_integer f then Ok (int_of_float f)
          else Error (Printf.sprintf "field %S must be an integer" k)
      in
      let str k =
        match take seen k with
        | Some (Str s) -> Ok s
        | Some _ -> Error (Printf.sprintf "field %S must be a string" k)
        | None -> Error (Printf.sprintf "missing field %S" k)
      in
      let num_or_null k =
        match take seen k with
        | Some (Num f) -> Ok f
        | Some Null -> Ok Float.nan
        | Some _ -> Error (Printf.sprintf "field %S must be a number or null" k)
        | None -> Error (Printf.sprintf "missing field %S" k)
      in
      let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
      let* at = num "t" in
      let* worker = int_ "w" in
      let* ev = str "ev" in
      let* payload =
        match ev with
        | "span_start" | "span_end" ->
          let* p = str "phase" in
          (match phase_of_name p with
          | None -> Error (Printf.sprintf "unknown phase %S" p)
          | Some ph ->
            Ok (if ev = "span_start" then Span_start ph else Span_end ph))
        | "node" ->
          let* depth = int_ "depth" in
          let* bound = num_or_null "bound" in
          (* [iters] (cumulative per-worker LP iterations) is optional so
             traces recorded before it existed still parse *)
          let* iters =
            match take seen "iters" with
            | None -> Ok 0
            | Some _ -> int_ "iters"
          in
          if depth < 0 then Error "negative depth"
          else if iters < 0 then Error "negative iters"
          else Ok (Node_explored { depth; bound; iters })
        | "incumbent" ->
          let* objective = num "obj" in
          let* node = int_ "node" in
          Ok (Incumbent { objective; node })
        | "cut" ->
          let* rounds = int_ "rounds" in
          let* cuts = int_ "cuts" in
          Ok (Cut_added { rounds; cuts })
        | "steal" ->
          let* tasks = int_ "tasks" in
          if tasks < 1 then Error "steal with no tasks"
          else Ok (Steal { tasks })
        | "idle" -> Ok Worker_idle
        | "restart" ->
          let* stage = str "stage" in
          Ok (Restart { stage })
        | "stopped" ->
          let* reason = str "reason" in
          Ok (Stopped { reason })
        | "refactor" ->
          let* reason = str "reason" in
          Ok (Lp_refactor { reason })
        | "warm" -> (
          let* result = str "result" in
          match result with
          | "dual" -> Ok (Lp_warm { fallback = None })
          | "fallback" ->
            let* reason = str "reason" in
            if reason = "" then Error "warm fallback without a reason"
            else Ok (Lp_warm { fallback = Some reason })
          | r -> Error (Printf.sprintf "unknown warm result %S" r))
        | "lp" ->
          let* iters = int_ "iters" in
          let* updates = int_ "updates" in
          let* seconds = num "seconds" in
          if iters < 0 || updates < 0 then Error "negative lp counts"
          else Ok (Lp_solved { iters; updates; seconds })
        | "presolve" ->
          let* rounds = int_ "rounds" in
          let* changes = int_ "changes" in
          let* infeasible =
            match take seen "infeasible" with
            | Some (Bool b) -> Ok b
            | _ -> Error "field \"infeasible\" must be a boolean"
          in
          Ok (Presolved { rounds; changes; infeasible })
        | "move" ->
          let* module_name = str "module" in
          let* src = str "src" in
          let* dst = str "dst" in
          Ok (Move { module_name; src; dst })
        | "warning" ->
          let* msg = str "msg" in
          Ok (Warning msg)
        | "message" ->
          let* msg = str "msg" in
          Ok (Message msg)
        | ev -> Error (Printf.sprintf "unknown event tag %S" ev)
      in
      let unknown =
        List.filter (fun (k, _) -> not (List.mem k !seen)) fields
      in
      match unknown with
      | (k, _) :: _ -> Error (Printf.sprintf "unknown field %S" k)
      | [] ->
        if at < 0. then Error "negative timestamp"
        else if worker < 0 then Error "negative worker id"
        else Ok { at; worker; payload })
end

(* ------------------------------------------------------------------ *)
(* Sinks *)

type sink = Null | Fn of { f : Event.t -> unit; m : Sync.Mutex.t }

module Sink = struct
  type t = sink

  let null = Null
  let is_null = function Null -> true | Fn _ -> false

  let of_fn f = Fn { f; m = Sync.Mutex.create ~name:"trace.sink" () }

  let send sink e =
    match sink with
    | Null -> ()
    | Fn { f; m } -> Sync.Mutex.protect m (fun () -> f e)

  let text ?(progress_every = 500) oc =
    let nodes_seen = ref 0 in
    of_fn (fun (e : Event.t) ->
        let show =
          match e.Event.payload with
          | Event.Node_explored _ ->
            incr nodes_seen;
            !nodes_seen mod progress_every = 0
          | _ -> true
        in
        if show then begin
          output_string oc (Format.asprintf "%a" Event.pp e);
          output_char oc '\n';
          flush oc
        end)

  let jsonl oc =
    of_fn (fun e ->
        output_string oc (Event.to_json e);
        output_char oc '\n';
        flush oc)

  let jsonl_file path =
    let oc = open_out path in
    (jsonl oc, fun () -> close_out oc)

  let tee a b =
    match (a, b) with
    | Null, s | s, Null -> s
    | _ -> of_fn (fun e -> send a e; send b e)
end

module Ring = struct
  type t = {
    cap : int;
    buf : Event.t option array;
    next : int Sync.Shared.t;  (* total events ever seen; under [m] *)
    m : Sync.Mutex.t;
  }

  let create ?(capacity = 65536) () =
    { cap = max 1 capacity; buf = Array.make (max 1 capacity) None;
      next = Sync.Shared.make ~name:"trace.ring.next" 0;
      m = Sync.Mutex.create ~name:"trace.ring" () }

  let sink r =
    Sink.of_fn (fun e ->
        Sync.Mutex.protect r.m (fun () ->
            let next = Sync.Shared.get r.next in
            r.buf.(next mod r.cap) <- Some e;
            Sync.Shared.set r.next (next + 1)))

  let events r =
    Sync.Mutex.protect r.m (fun () ->
        let total = Sync.Shared.get r.next in
        let kept = min total r.cap in
        List.init kept (fun i ->
            Option.get r.buf.((total - kept + i) mod r.cap)))

  let dropped r =
    Sync.Mutex.protect r.m (fun () ->
        max 0 (Sync.Shared.get r.next - r.cap))

  let clear r =
    Sync.Mutex.protect r.m (fun () ->
        Array.fill r.buf 0 r.cap None;
        Sync.Shared.set r.next 0)
end

(* ------------------------------------------------------------------ *)
(* Span pairing *)

module Spans = struct
  (* (worker, phase) -> start times of its open spans, innermost first *)
  type t = (int * Event.phase, float list) Hashtbl.t

  let create () : t = Hashtbl.create 8

  let feed (t : t) (e : Event.t) =
    match e.Event.payload with
    | Event.Span_start p ->
      let k = (e.Event.worker, p) in
      Hashtbl.replace t k
        (e.Event.at :: Option.value ~default:[] (Hashtbl.find_opt t k));
      None
    | Event.Span_end p -> (
      let k = (e.Event.worker, p) in
      match Hashtbl.find_opt t k with
      | Some (t0 :: rest) ->
        if rest = [] then Hashtbl.remove t k else Hashtbl.replace t k rest;
        Some (p, e.Event.at -. t0)
      | Some [] | None -> None)
    | _ -> None
end

(* ------------------------------------------------------------------ *)
(* Reports *)

module Report = struct
  type phase_stat = {
    ps_phase : Event.phase;
    ps_seconds : float;
    ps_count : int;
  }

  type worker_stat = { ws_worker : int; ws_nodes : int; ws_iterations : int }

  type gc_stat = {
    gc_minor_collections : int;
    gc_major_collections : int;
    gc_promoted_words : float;
    gc_top_heap_words : int;
  }

  let no_gc =
    {
      gc_minor_collections = 0;
      gc_major_collections = 0;
      gc_promoted_words = 0.;
      gc_top_heap_words = 0;
    }

  type t = {
    nodes : int;
    simplex_iterations : int;
    elapsed : float;
    incumbents : int;
    cuts : int;
    tasks_donated : int;
    idle_events : int;
    restarts : int;
    warnings : int;
    phases : phase_stat list;
    workers : worker_stat list;
    depth_histogram : (int * int) list;
    gc : gc_stat;
  }

  let empty =
    {
      nodes = 0;
      simplex_iterations = 0;
      elapsed = 0.;
      incumbents = 0;
      cuts = 0;
      tasks_donated = 0;
      idle_events = 0;
      restarts = 0;
      warnings = 0;
      phases = [];
      workers = [];
      depth_histogram = [];
      gc = no_gc;
    }

  (* The running fold of one tracer's events: [totals] holds the
     counters and phases, the tables the per-node tallies.  Only [fold]
     and [snapshot] touch it, both under [m], so the workers of a
     parallel solve share one. *)
  type acc = {
    m : Sync.Mutex.t;
    mutable totals : t;
    spans : Spans.t;
    (* worker -> (nodes, simplex iterations) *)
    per_worker : (int, int * int) Hashtbl.t;
    (* depth -> nodes *)
    depths : (int, int) Hashtbl.t;
  }

  let acc () =
    {
      m = Sync.Mutex.create ~name:"trace.report" ();
      totals = empty;
      spans = Spans.create ();
      per_worker = Hashtbl.create 8;
      depths = Hashtbl.create 16;
    }

  (* one more completed span; phases stay in order of first completion *)
  let add_phase phases phase dt =
    if List.exists (fun s -> s.ps_phase = phase) phases then
      List.map
        (fun s ->
          if s.ps_phase <> phase then s
          else
            { s with ps_seconds = s.ps_seconds +. dt; ps_count = s.ps_count + 1 })
        phases
    else phases @ [ { ps_phase = phase; ps_seconds = dt; ps_count = 1 } ]

  let bump tbl k ~default f =
    Hashtbl.replace tbl k (f (Option.value ~default (Hashtbl.find_opt tbl k)))

  let fold a (e : Event.t) =
    let w = e.Event.worker in
    Sync.Mutex.protect a.m @@ fun () ->
    let r = a.totals in
    match e.Event.payload with
    | Event.Span_start _ | Event.Span_end _ -> (
      match Spans.feed a.spans e with
      | Some (p, dt) -> a.totals <- { r with phases = add_phase r.phases p dt }
      | None -> ())
    | Event.Node_explored { depth; _ } ->
      bump a.per_worker w ~default:(0, 0) (fun (n, i) -> (n + 1, i));
      bump a.depths depth ~default:0 succ
    | Event.Lp_solved { iters; _ } ->
      bump a.per_worker w ~default:(0, 0) (fun (n, i) -> (n, i + iters))
    | Event.Incumbent _ -> a.totals <- { r with incumbents = r.incumbents + 1 }
    | Event.Cut_added { cuts; _ } -> a.totals <- { r with cuts = r.cuts + cuts }
    | Event.Steal { tasks } ->
      a.totals <- { r with tasks_donated = r.tasks_donated + tasks }
    | Event.Worker_idle -> a.totals <- { r with idle_events = r.idle_events + 1 }
    | Event.Restart _ -> a.totals <- { r with restarts = r.restarts + 1 }
    | Event.Warning _ -> a.totals <- { r with warnings = r.warnings + 1 }
    | Event.Stopped _ | Event.Lp_refactor _ | Event.Lp_warm _
    | Event.Presolved _ | Event.Move _ | Event.Message _ -> ()

  let snapshot a ~nodes ~simplex_iterations ~elapsed ~gc =
    let sorted tbl = List.sort compare (List.of_seq (Hashtbl.to_seq tbl)) in
    Sync.Mutex.protect a.m @@ fun () ->
    {
      a.totals with
      nodes;
      simplex_iterations;
      elapsed;
      workers =
        List.map
          (fun (w, (n, i)) -> { ws_worker = w; ws_nodes = n; ws_iterations = i })
          (sorted a.per_worker);
      depth_histogram = sorted a.depths;
      gc;
    }

  let pp ppf r =
    Format.fprintf ppf
      "nodes %d  simplex iterations %d  elapsed %.3fs@.incumbents %d  cuts %d  \
       tasks donated %d  idle %d  restarts %d  warnings %d@."
      r.nodes r.simplex_iterations r.elapsed r.incumbents r.cuts
      r.tasks_donated r.idle_events r.restarts r.warnings;
    if r.gc <> no_gc then
      Format.fprintf ppf
        "gc: %d minor / %d major collections, %.3g promoted words, top heap \
         %d words@."
        r.gc.gc_minor_collections r.gc.gc_major_collections
        r.gc.gc_promoted_words r.gc.gc_top_heap_words;
    if r.phases <> [] then begin
      Format.fprintf ppf "phase breakdown:@.";
      List.iter
        (fun p ->
          Format.fprintf ppf "  %-13s %9.4fs  (%d span%s)@."
            (Event.phase_name p.ps_phase)
            p.ps_seconds p.ps_count
            (if p.ps_count = 1 then "" else "s"))
        r.phases
    end;
    if r.workers <> [] then begin
      Format.fprintf ppf "per-worker:@.";
      List.iter
        (fun w ->
          Format.fprintf ppf "  w%-3d nodes %8d  iterations %10d@." w.ws_worker
            w.ws_nodes w.ws_iterations)
        r.workers
    end;
    if r.depth_histogram <> [] then begin
      Format.fprintf ppf "node depth histogram:";
      List.iter
        (fun (d, c) -> Format.fprintf ppf " %d:%d" d c)
        r.depth_histogram;
      Format.fprintf ppf "@."
    end

  let to_json r =
    let b = Buffer.create 512 in
    Buffer.add_string b
      (Printf.sprintf
         "{\"nodes\":%d,\"simplex_iterations\":%d,\"elapsed\":%.6f,\"incumbents\":%d,\"cuts\":%d,\"tasks_donated\":%d,\"idle_events\":%d,\"restarts\":%d,\"warnings\":%d"
         r.nodes r.simplex_iterations r.elapsed r.incumbents r.cuts
         r.tasks_donated r.idle_events r.restarts r.warnings);
    Buffer.add_string b ",\"phases\":[";
    List.iteri
      (fun i p ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b
          (Printf.sprintf "{\"phase\":\"%s\",\"seconds\":%.6f,\"count\":%d}"
             (Event.phase_name p.ps_phase)
             p.ps_seconds p.ps_count))
      r.phases;
    Buffer.add_string b "],\"workers\":[";
    List.iteri
      (fun i w ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b
          (Printf.sprintf "{\"worker\":%d,\"nodes\":%d,\"iterations\":%d}"
             w.ws_worker w.ws_nodes w.ws_iterations))
      r.workers;
    Buffer.add_string b "],\"depth_histogram\":[";
    List.iteri
      (fun i (d, c) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (Printf.sprintf "[%d,%d]" d c))
      r.depth_histogram;
    Buffer.add_string b
      (Printf.sprintf
         "],\"gc\":{\"minor_collections\":%d,\"major_collections\":%d,\"promoted_words\":%.0f,\"top_heap_words\":%d}}"
         r.gc.gc_minor_collections r.gc.gc_major_collections
         r.gc.gc_promoted_words r.gc.gc_top_heap_words);
    Buffer.contents b
end

(* ------------------------------------------------------------------ *)
(* Tracers *)

(* An enabled tracer is a clock epoch, a sink and the report fold:
   every event it emits is folded into [report], then forwarded to the
   sink.  [Disabled] does nothing at all. *)
type t =
  | Disabled
  | Enabled of {
      epoch : int64;
      sink : sink;
      report : Report.acc;
      gc0 : Gc.stat;  (* quick_stat baseline at creation; report deltas it *)
    }

let disabled = Disabled

let make ~epoch sink =
  Enabled { epoch; sink; report = Report.acc (); gc0 = Gc.quick_stat () }

let create ?(sink = Null) () = make ~epoch:(clock_ns ()) sink

let enabled = function Disabled -> false | Enabled _ -> true

(* The child forwards to [parent]'s sink with the worker id shifted by
   [worker_base], on the parent's epoch so the timestamps land on one
   clock; its report fold stays private, so portfolio members report
   their own totals. *)
let subtracer parent ~worker_base =
  match parent with
  | Enabled { sink; epoch; _ } when not (Sink.is_null sink) ->
    make ~epoch
      (Sink.of_fn (fun (e : Event.t) ->
           Sink.send sink
             { e with Event.worker = e.Event.worker + worker_base }))
  | Enabled _ | Disabled -> create ()

let now = function
  | Disabled -> 0.
  | Enabled { epoch; _ } ->
    Int64.to_float (Int64.sub (clock_ns ()) epoch) *. 1e-9

let emit t ?(worker = 0) payload =
  match t with
  | Disabled -> ()
  | Enabled { sink; report; _ } ->
    let e = { Event.at = now t; worker; payload } in
    Report.fold report e;
    Sink.send sink e

let span t ?(worker = 0) phase f =
  match t with
  | Disabled -> f ()
  | Enabled _ ->
    emit t ~worker (Event.Span_start phase);
    Fun.protect ~finally:(fun () -> emit t ~worker (Event.Span_end phase)) f

let messagef t ?(worker = 0) fmt =
  match t with
  | Disabled -> Format.ikfprintf ignore Format.err_formatter fmt
  | Enabled _ ->
    Format.kasprintf (fun msg -> emit t ~worker (Event.Message msg)) fmt

let warn t ?(worker = 0) msg = emit t ~worker (Event.Warning msg)

let node_explored t ~iters ~worker ~depth ~bound =
  if enabled t then emit t ~worker (Event.Node_explored { depth; bound; iters })

let incumbent t ~worker ~objective ~node =
  emit t ~worker (Event.Incumbent { objective; node })

let cuts_added t ~worker ~rounds ~cuts =
  if cuts > 0 then emit t ~worker (Event.Cut_added { rounds; cuts })

let steal t ~worker ~tasks =
  if tasks > 0 then emit t ~worker (Event.Steal { tasks })

let worker_idle t ~worker = emit t ~worker Event.Worker_idle
let restart t ?(worker = 0) stage = emit t ~worker (Event.Restart { stage })
let stopped t ?(worker = 0) reason = emit t ~worker (Event.Stopped { reason })

let move t ?(worker = 0) ~module_name ~src ~dst () =
  emit t ~worker (Event.Move { module_name; src; dst })

let report t ~nodes ~simplex_iterations ~elapsed =
  match t with
  | Disabled -> { Report.empty with nodes; simplex_iterations; elapsed }
  | Enabled { report; gc0; _ } ->
    let g = Gc.quick_stat () in
    Report.snapshot report ~nodes ~simplex_iterations ~elapsed
      ~gc:
        {
          Report.gc_minor_collections =
            g.Gc.minor_collections - gc0.Gc.minor_collections;
          gc_major_collections =
            g.Gc.major_collections - gc0.Gc.major_collections;
          gc_promoted_words = g.Gc.promoted_words -. gc0.Gc.promoted_words;
          gc_top_heap_words = g.Gc.top_heap_words;
        }

(* ------------------------------------------------------------------ *)
(* JSONL validation *)

let validate_jsonl text =
  let lines = String.split_on_char '\n' text in
  let open_spans = Hashtbl.create 16 in
  let count = ref 0 in
  let err = ref None in
  List.iteri
    (fun i line ->
      if !err = None && String.trim line <> "" then
        match Event.of_json (String.trim line) with
        | Error m -> err := Some (Printf.sprintf "line %d: %s" (i + 1) m)
        | Ok e -> (
          incr count;
          match e.Event.payload with
          | Event.Span_start p ->
            let k = (e.Event.worker, p) in
            Hashtbl.replace open_spans k
              (1 + Option.value ~default:0 (Hashtbl.find_opt open_spans k))
          | Event.Span_end p -> (
            let k = (e.Event.worker, p) in
            match Hashtbl.find_opt open_spans k with
            | Some n when n > 0 -> Hashtbl.replace open_spans k (n - 1)
            | _ ->
              err :=
                Some
                  (Printf.sprintf
                     "line %d: span_end %s on worker %d without a matching \
                      span_start"
                     (i + 1) (Event.phase_name p) e.Event.worker))
          | _ -> ()))
    lines;
  match !err with
  | Some m -> Error m
  | None ->
    let unbalanced = ref None in
    Hashtbl.iter
      (fun (w, p) n ->
        if n <> 0 && !unbalanced = None then
          unbalanced :=
            Some
              (Printf.sprintf "unclosed span %s on worker %d"
                 (Event.phase_name p) w))
      open_spans;
    (match !unbalanced with Some m -> Error m | None -> Ok !count)
