(** Lightweight MILP presolve: iterated bound tightening.

    Works in place on variable bounds only (rows are never removed or
    rewritten), so solutions of the presolved problem are exactly
    solutions of the original.  Detects some infeasibilities early and
    shrinks big-M boxes, which directly helps {!Branch_bound}. *)

type outcome =
  | Tightened of int  (** number of bound changes applied *)
  | Proven_infeasible

val tighten : ?max_rounds:int -> ?trace:Rfloor_trace.t -> Lp.t -> outcome
(** Activity-based bound tightening.  For each row, the residual
    activity range implies bounds on each participating variable;
    integer variables additionally have fractional bounds rounded.
    Iterates to a fixed point or [max_rounds] (default 10).  [trace]
    (default {!Rfloor_trace.disabled}) brackets the pass in a
    [Presolve] span and reports the outcome as one [Presolved] event
    (rounds run, bound changes, infeasibility proof), which the metrics
    library's [Trace_sink] folds into the [rfloor_presolve_*]
    counters. *)
