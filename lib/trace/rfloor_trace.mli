(** Structured solver observability.

    A {e tracer} ({!type:t}) is the handle the solvers write to: typed
    events with monotonic timestamps and worker ids flow to a pluggable
    {!Sink} (null, human text, JSONL, in-memory ring buffer).  The
    tracer keeps no counters of its own: its {!Report.t} (per-phase wall
    time, incumbents, cut rows, donated tasks, per-worker node and
    iteration totals, node depths) is one more fold of the events it
    emits, so the report and every sink see the same stream.

    Cost model: {!disabled} costs one load-and-branch per call and
    records nothing.  Every other tracer builds every event, folds it
    into its report and hands it to its sink, whether or not that sink
    is null.

    Sinks serialize concurrent emitters behind a per-sink mutex, and
    the report fold has its own, so one tracer can be shared by all
    domains of a parallel solve. *)

(** {1 Events} *)

module Event : sig
  type phase =
    | Build  (** MILP model construction *)
    | Presolve  (** bound tightening *)
    | Lint  (** spec/model preflight *)
    | Root_lp  (** first LP relaxation of a branch-and-bound run *)
    | Branch_bound  (** the tree search itself *)
    | Decode  (** solution vector -> floorplan, waste/wire metrics *)
    | Audit  (** independent re-verification of the decoded plan *)
    | Lp_solve  (** a standalone simplex solve outside branch-and-bound *)
    | Job  (** one {!Rfloor_service} job, queue claim to completion *)

  type payload =
    | Span_start of phase
    | Span_end of phase
    | Node_explored of { depth : int; bound : float; iters : int }
        (** one branch-and-bound node; [bound] is the parent relaxation
            bound ([nan]/infinite allowed, rendered as [null]); [iters]
            is the emitting worker's cumulative simplex-iteration count
            at that point (0 = unreported; optional on parse so older
            traces still load) *)
    | Incumbent of { objective : float; node : int }
    | Cut_added of { rounds : int; cuts : int }
    | Steal of { tasks : int }
        (** a donor pushed [tasks] open subproblems to the shared deque *)
    | Worker_idle  (** a worker ran out of local work and started polling *)
    | Restart of { stage : string }
        (** a new optimization stage over the same instance *)
    | Stopped of { reason : string }
        (** the search stopped early; [reason] is ["cancel"] for a
            cooperative cancellation and ["budget"] for a time/node
            limit *)
    | Lp_refactor of { reason : string }
        (** the simplex built a fresh basis factorization; [reason] is
            ["initial"] (the crash basis of a cold solve), ["warm"] (a
            parent basis installed for a dual warm start), ["final"]
            (the clean rebuild before an optimal result is reported),
            ["periodic"] (eta cap / fill growth) or ["stability"] (a
            dubious update pivot).  A fresh factorization that comes
            back singular emits nothing: the simplex keeps its eta file
            and pushes the cap out instead *)
    | Lp_warm of { fallback : string option }
        (** a warm-started LP re-solve finished.  [None]: the dual
            simplex served it from the parent basis, with an optimal
            result or a Farkas proof of infeasibility (JSONL
            ["result":"dual"]).  [Some reason]: it fell back to a cold
            two-phase solve (["result":"fallback","reason":...]), where
            [reason] is ["shape"] (the snapshot does not fit the
            problem), ["singular"] (the parent basis does not factor),
            ["dual_infeasible"] (the child's bounds leave the parent
            basis dual infeasible), ["iter_cap"] (dual pivot cap),
            ["small_pivot"] (a dual pivot element too small to trust),
            ["farkas_margin"] (the row that ran out of entering
            candidates misses its bound by too little to prove
            infeasibility) or ["cleanup"] (the primal clean-up after
            the dual pivots did not end optimal) *)
    | Lp_solved of { iters : int; updates : int; seconds : float }
        (** one LP relaxation solved (a branch-and-bound node or a
            standalone solve, warm attempt and cold fallback together):
            [iters] simplex iterations of the reported result,
            [updates] product-form basis updates and [seconds] of wall
            time *)
    | Presolved of { rounds : int; changes : int; infeasible : bool }
        (** a presolve pass finished after [rounds] tightening rounds,
            with [changes] bound changes applied, or with an
            infeasibility proof ([changes] is then 0) *)
    | Move of { module_name : string; src : string; dst : string }
        (** an online defragmentation relocated a placed module;
            [src]/[dst] are rectangle strings as printed by
            [Rect.to_string] *)
    | Warning of string
    | Message of string

  type t = { at : float;  (** seconds since the tracer's epoch *)
             worker : int;
             payload : payload }

  val phase_name : phase -> string
  val phase_of_name : string -> phase option
  val name : payload -> string
  (** The JSONL ["ev"] tag: ["span_start"], ["node"], ["steal"], ... *)

  val pp : Format.formatter -> t -> unit
  (** One human-readable line, e.g. [[w0 +0.0123s] incumbent 42 (node 17)]. *)

  val to_json : t -> string
  (** One JSONL object (no trailing newline), e.g.
      [{"t":0.0123,"w":0,"ev":"node","depth":3,"bound":41.5}]. *)

  val of_json : string -> (t, string) result
  (** Parses and schema-checks one JSONL line: known ["ev"] tag, all
      required fields present with the right types, no unknown fields.
      The inverse of {!to_json}. *)
end

(** {1 Sinks} *)

type sink

module Sink : sig
  type t = sink

  val null : t
  val is_null : t -> bool

  val of_fn : (Event.t -> unit) -> t
  (** Every event, serialized behind a mutex. *)

  val text : ?progress_every:int -> out_channel -> t
  (** Renders events as human text lines on a channel (flushed per
      line).  [Node_explored] events are sampled — one line every
      [progress_every] (default 500); everything else is rendered
      unconditionally. *)

  val jsonl : out_channel -> t
  (** One JSON object per line, every event, flushed per line. *)

  val jsonl_file : string -> t * (unit -> unit)
  (** Opens (truncates) [path]; the returned thunk closes it. *)

  val tee : t -> t -> t
end

module Ring : sig
  (** Bounded in-memory sink for tests: keeps the last [capacity]
      events, counts the rest as dropped. *)

  type t

  val create : ?capacity:int -> unit -> t
  (** Default capacity 65536. *)

  val sink : t -> sink
  val events : t -> Event.t list
  (** Oldest first. *)

  val dropped : t -> int
  val clear : t -> unit
end

(** {1 Span pairing} *)

module Spans : sig
  (** Pairs [Span_start]/[Span_end] events last-in-first-out per worker
      and phase: the one pairing rule behind {!Report.t}'s phases and
      the metrics fold's [rfloor_phase_seconds].  Not synchronized. *)

  type t

  val create : unit -> t

  val feed : t -> Event.t -> (Event.phase * float) option
  (** [Some (phase, seconds)] when the event closes an open span of its
      worker and phase; [None] for every other event. *)
end

(** {1 Reports} *)

module Report : sig
  type phase_stat = {
    ps_phase : Event.phase;
    ps_seconds : float;  (** total wall time inside the span *)
    ps_count : int;  (** completed spans *)
  }

  type worker_stat = {
    ws_worker : int;
    ws_nodes : int;
    ws_iterations : int;  (** simplex iterations *)
  }

  type gc_stat = {
    gc_minor_collections : int;  (** delta over the tracer's lifetime *)
    gc_major_collections : int;  (** delta over the tracer's lifetime *)
    gc_promoted_words : float;  (** words promoted minor -> major (delta) *)
    gc_top_heap_words : int;  (** high-water heap size, absolute *)
  }

  val no_gc : gc_stat
  (** All zeros — what {!empty} and disabled tracers carry. *)

  type t = {
    nodes : int;
    simplex_iterations : int;
    elapsed : float;
    incumbents : int;  (** incumbent improvements *)
    cuts : int;  (** cut rows added: model-build and root Gomory *)
    tasks_donated : int;  (** subproblems pushed to the shared deque *)
    idle_events : int;
    restarts : int;
    warnings : int;
    phases : phase_stat list;
        (** spans paired last-in-first-out per worker and phase, in the
            order each phase first completed a span *)
    workers : worker_stat list;
        (** per-worker [Node_explored] count and summed [Lp_solved]
            iterations, ascending worker id *)
    depth_histogram : (int * int) list;
        (** (depth, [Node_explored] events at that depth), ascending *)
    gc : gc_stat;
        (** [Gc.quick_stat] deltas between tracer creation and
            {!val:report} — allocation pressure of the solve itself *)
  }

  val empty : t
  val pp : Format.formatter -> t -> unit
  val to_json : t -> string
  (** Single JSON object (machine-readable phase/worker breakdown). *)
end

(** {1 Tracers} *)

type t

val disabled : t
(** The tracer that does nothing: never emits, never counts.  The
    default in solver options that are constructed without one. *)

val create : ?sink:sink -> unit -> t
(** An enabled tracer; its epoch is the creation instant.  Every event
    is folded into its {!report} and then sent to [sink] (default
    {!Sink.null}). *)

val subtracer : t -> worker_base:int -> t
(** [subtracer parent ~worker_base] is an enabled tracer that forwards
    its events to [parent]'s sink with every worker id shifted by
    [worker_base], on the parent's clock.  Concurrent sub-solves (e.g.
    portfolio members) can thus share one sink without colliding worker
    ids: give member [i] base [(i+1)*1000] and per-worker span nesting
    stays balanced.  The child's report is private: its events do not
    reach [parent]'s report.  If [parent] has no sink this is just
    {!create}[ ()]. *)

val enabled : t -> bool
(** [enabled t] iff [t] is not {!disabled} — the guard to test before
    building an event's payload on a hot path. *)

val now : t -> float
(** Monotonic seconds since the tracer's epoch (0. for {!disabled}). *)

val emit : t -> ?worker:int -> Event.payload -> unit
(** Folds one event into the report and sends it to the sink; a no-op
    on {!disabled}.  The helpers below are each one [emit]. *)

val span : t -> ?worker:int -> Event.phase -> (unit -> 'a) -> 'a
(** [span t phase f] runs [f] bracketed by [Span_start]/[Span_end]
    (exception-safe); the report charges the time between them to the
    phase. *)

val messagef :
  t -> ?worker:int -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Formats and emits a [Message] event; {!disabled} skips the
    formatting. *)

val warn : t -> ?worker:int -> string -> unit

val node_explored :
  t -> iters:int -> worker:int -> depth:int -> bound:float -> unit
(** One [Node_explored] event: the report's per-worker node count and
    depth histogram come from it.  The caller's own node counter stays
    the source of the report's [nodes] total (see {!report}).  [iters]
    is the worker's cumulative simplex-iteration count (0 when
    unknown), letting progress consumers report LP work without a
    second event stream. *)

val incumbent : t -> worker:int -> objective:float -> node:int -> unit

val cuts_added : t -> worker:int -> rounds:int -> cuts:int -> unit
(** Emits nothing when [cuts] is 0. *)

val steal : t -> worker:int -> tasks:int -> unit
(** Emits nothing when [tasks] is 0. *)

val worker_idle : t -> worker:int -> unit
val restart : t -> ?worker:int -> string -> unit

val stopped : t -> ?worker:int -> string -> unit
(** Emits a [Stopped] event naming why the search ended early; solvers
    emit it once per early stop. *)

val move :
  t -> ?worker:int -> module_name:string -> src:string -> dst:string ->
  unit -> unit
(** Emits a [Move] event recording one executed online relocation. *)

val report :
  t -> nodes:int -> simplex_iterations:int -> elapsed:float -> Report.t
(** The fold of every event the tracer has emitted so far (see the
    field docs of {!Report.t}), plus the [Gc.quick_stat] deltas since
    its creation.  [nodes], [simplex_iterations] and [elapsed] come
    from the caller's own counters.  {!disabled} yields {!Report.empty}
    with those totals filled in. *)

(** {1 JSONL validation} *)

val validate_jsonl : string -> (int, string) result
(** Validates a whole JSONL trace (as read from a file): every line
    must parse via {!Event.of_json}, timestamps must be non-negative,
    and every [Span_start] must have a matching [Span_end] on the same
    worker.  Returns the number of events, or the first violation
    (with its 1-based line number). *)
