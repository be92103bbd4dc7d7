(* Sparse revised simplex over an LU-factorized basis.

   The basis inverse is never formed: every iteration works through
   {!Lu} ftran/btran solves against a sparse LU of the basis, extended
   by product-form etas after each pivot and refactorized from scratch
   when the eta file grows past its cap, accumulates fill, or absorbs a
   pivot too small to trust.  Pricing is devex (reference-framework
   weights, reset on phase switches or weight blow-up) with a
   Bland's-rule fallback after a long degenerate streak; the ratio test
   is a two-pass Harris test that relaxes bounds by a small tolerance
   in pass one and then picks the numerically largest eligible pivot.

   Besides the classic cold two-phase primal solve there is a dual
   simplex path ({!Core.solve_warm}) for branch-and-bound children: a
   parent-optimal basis stays dual feasible after a branching bound
   flip, so the child re-solve starts from the parent {!Basis.t}
   snapshot and drives out primal infeasibility with dual pivots.
   Every doubt on that path — singular factorization, dual
   infeasibility beyond tolerance, no eligible entering column, an
   overshot entering bound, an iteration cap — falls back to the cold
   solve, which remains the correctness anchor. *)

type status = Optimal | Infeasible | Unbounded | Iter_limit

type outcome = {
  status : status;
  objective : float;
  x : float array;
  iterations : int;
}

let feas_eps = 1e-7
let dual_eps = 1e-7
let pivot_eps = 1e-9
let harris_tol = 1e-8 (* pass-one bound relaxation of the ratio test *)
let bland_after = 400 (* consecutive degenerate pivots before Bland's rule *)
let devex_reset = 1e8 (* weight blow-up that resets the reference frame *)
let warm_dual_tol = 1e-6 (* dual infeasibility accepted at warm install *)

module P = struct
  (* Columns are laid out as: structural vars [0, n), slacks [n, n+m),
     artificials [n+m, n+2m).  Slack and artificial columns are unit
     vectors and never stored explicitly.  Structural column j is flat
     CSC: rows col_idx and coefficients col_val over
     [col_start.(j), col_start.(j+1)), in constraint order. *)
  type t = {
    n : int;
    m : int;
    col_start : int array; (* length n + 1 *)
    col_idx : int array;
    col_val : float array;
    cost : float array; (* minimization costs for structural vars *)
    dir : Lp.dir;
    obj_constant : float;
    b : float array;
    lb0 : float array; (* default bounds, length n + 2m *)
    ub0 : float array;
  }

  let num_vars t = t.n
  let num_rows t = t.m

  let of_lp lp =
    let n = Lp.num_vars lp in
    let m = Lp.num_constrs lp in
    let cols_acc = Array.make n [] in
    let b = Array.make m 0. in
    Lp.iter_constrs lp (fun i terms _ rhs ->
        b.(i) <- rhs;
        List.iter (fun (c, v) -> cols_acc.(v) <- (i, c) :: cols_acc.(v)) terms);
    let col_start = Array.make (n + 1) 0 in
    for v = 0 to n - 1 do
      col_start.(v + 1) <- col_start.(v) + List.length cols_acc.(v)
    done;
    let col_idx = Array.make col_start.(n) 0 in
    let col_val = Array.make col_start.(n) 0. in
    (* each accumulator list is newest first: fill its slice backwards *)
    Array.iteri
      (fun v l ->
        List.iteri
          (fun k (r, c) ->
            let p = col_start.(v + 1) - 1 - k in
            col_idx.(p) <- r;
            col_val.(p) <- c)
          l)
      cols_acc;
    let dir = Lp.objective_dir lp in
    let sign = match dir with Lp.Minimize -> 1. | Lp.Maximize -> -1. in
    let cost = Array.init n (fun v -> sign *. Lp.objective_coeff lp v) in
    let total = n + m + m in
    let lb0 = Array.make total 0. and ub0 = Array.make total 0. in
    for v = 0 to n - 1 do
      lb0.(v) <- Lp.var_lb lp v;
      ub0.(v) <- Lp.var_ub lp v
    done;
    Lp.iter_constrs lp (fun i _ sense _ ->
        (* row + slack = rhs, so: Le -> slack >= 0; Ge -> slack <= 0 *)
        let l, u =
          match sense with
          | Lp.Le -> (0., infinity)
          | Lp.Ge -> (neg_infinity, 0.)
          | Lp.Eq -> (0., 0.)
        in
        lb0.(n + i) <- l;
        ub0.(n + i) <- u);
    (* artificial bounds are set per-solve from the initial residual *)
    {
      n;
      m;
      col_start;
      col_idx;
      col_val;
      cost;
      dir;
      obj_constant = Lp.objective_constant lp;
      b;
      lb0;
      ub0;
    }
end

module Basis = struct
  (* Immutable basis snapshot: the basic column of every position plus
     the bound status of every structural/slack column (0 = at lower,
     1 = at upper, 2 = free at zero).  Statuses are re-clamped against
     the child's bounds at install time, which is exactly what a
     branching bound flip needs. *)
  type t = { bs_m : int; bs_nm : int; bs_basis : int array; bs_status : int array }
end

type state = {
  core : P.t;
  total : int; (* n + 2m *)
  lb : float array;
  ub : float array;
  cost : float array; (* current phase costs, length total *)
  x : float array;
  basis : int array; (* variable basic in each position *)
  basic_row : int array; (* variable -> basis position, or -1 *)
  mutable lu : Lu.t;
  y : float array; (* duals, original-row indexed scratch *)
  w : float array; (* ftran image of the entering column, scratch *)
  rho : float array; (* btran image of a unit vector (pivot row), scratch *)
  dw : float array; (* devex reference weights, length total *)
  mutable iters : int;
  mutable ecap : int; (* current eta cap (pushed out on singular refactor) *)
  mutable degen_streak : int;
  updates : int ref; (* product-form updates, shared by a warm attempt
                        and its cold fallback *)
  trace : Rfloor_trace.t;
  t_worker : int;
}

(* Column access.  The hot loops below read the flat columns directly
   and handle unit columns inline; [@inline] keeps their float
   arguments and results unboxed at every call site, so pricing, the
   devex row and the ratio scans allocate nothing per column. *)

(* Row of the unit column [j >= n] (slack or artificial). *)
let[@inline] unit_row core j =
  if j < core.P.n + core.P.m then j - core.P.n else j - core.P.n - core.P.m

(* The {!Lu.factor} callback: [f row coef] for every nonzero of [j]. *)
let col_iter st j f =
  let core = st.core in
  if j < core.P.n then
    for p = core.P.col_start.(j) to core.P.col_start.(j + 1) - 1 do
      f core.P.col_idx.(p) core.P.col_val.(p)
    done
  else f (unit_row core j) 1.

(* r := r - xj * column j *)
let[@inline] sub_col core r j xj =
  if j < core.P.n then
    for p = core.P.col_start.(j) to core.P.col_start.(j + 1) - 1 do
      let i = core.P.col_idx.(p) in
      r.(i) <- r.(i) -. (core.P.col_val.(p) *. xj)
    done
  else begin
    let i = unit_row core j in
    r.(i) <- r.(i) -. xj
  end

exception Singular_basis

let factorize st reason =
  match Lu.factor ~m:st.core.P.m (col_iter st) st.basis with
  | lu ->
    st.lu <- lu;
    st.ecap <- Lu.base_eta_cap;
    Rfloor_trace.emit st.trace ~worker:st.t_worker (Lp_refactor { reason })
  | exception Lu.Singular -> raise Singular_basis

(* Recompute basic variable values from nonbasic values. *)
let compute_basics st =
  let m = st.core.P.m in
  let r = Array.copy st.core.P.b in
  for j = 0 to st.total - 1 do
    let xj = st.x.(j) in
    if st.basic_row.(j) < 0 && xj <> 0. then sub_col st.core r j xj
  done;
  Lu.ftran st.lu r;
  for i = 0 to m - 1 do
    st.x.(st.basis.(i)) <- r.(i)
  done

let refactor st reason =
  factorize st reason;
  compute_basics st

(* Refactorization on the eta-file triggers; a singular fresh factor
   keeps the still-valid eta file and pushes the cap out instead. *)
let maybe_refactor st =
  if Lu.needs_refactor ~cap:st.ecap st.lu then begin
    let reason = if Lu.unstable st.lu then "stability" else "periodic" in
    try refactor st reason
    with Singular_basis -> st.ecap <- Lu.eta_count st.lu + Lu.base_eta_cap
  end

(* w := B^-1 * column j *)
let ftran st j =
  let core = st.core and w = st.w in
  Array.fill w 0 core.P.m 0.;
  if j < core.P.n then
    for p = core.P.col_start.(j) to core.P.col_start.(j + 1) - 1 do
      let r = core.P.col_idx.(p) in
      w.(r) <- w.(r) +. core.P.col_val.(p)
    done
  else w.(unit_row core j) <- 1.;
  Lu.ftran st.lu w

(* y := (B^-1)^T * cost_B, original-row indexed *)
let btran_costs st =
  let m = st.core.P.m in
  for i = 0 to m - 1 do
    st.y.(i) <- st.cost.(st.basis.(i))
  done;
  Lu.btran st.lu st.y

(* rho := row r of B^-1, original-row indexed *)
let pivot_row st r =
  let m = st.core.P.m in
  Array.fill st.rho 0 m 0.;
  st.rho.(r) <- 1.;
  Lu.btran st.lu st.rho

let[@inline] reduced_cost st j =
  let core = st.core in
  if j < core.P.n then begin
    let y = st.y and idx = core.P.col_idx and vals = core.P.col_val in
    let d = ref st.cost.(j) in
    for p = core.P.col_start.(j) to core.P.col_start.(j + 1) - 1 do
      d := !d -. (y.(idx.(p)) *. vals.(p))
    done;
    !d
  end
  else st.cost.(j) -. st.y.(unit_row core j)

let[@inline] row_coef st j =
  let core = st.core in
  if j < core.P.n then begin
    let rho = st.rho and idx = core.P.col_idx and vals = core.P.col_val in
    let a = ref 0. in
    for p = core.P.col_start.(j) to core.P.col_start.(j + 1) - 1 do
      a := !a +. (rho.(idx.(p)) *. vals.(p))
    done;
    !a
  end
  else 0. +. st.rho.(unit_row core j) (* as summed: a -0. entry reads +0. *)

(* Devex reference-framework weight update after a basis change: [q]
   enters, position [r] leaves, [arq] is the pivot element.  Uses the
   pre-update factorization, so it must run before [Lu.update]. *)
let devex_update st r q arq =
  pivot_row st r;
  let wq = st.dw.(q) in
  let arq2 = arq *. arq in
  let maxw = ref 0. in
  for j = 0 to st.total - 1 do
    if j <> q && st.basic_row.(j) < 0 && st.lb.(j) < st.ub.(j) then begin
      let arj = row_coef st j in
      if arj <> 0. then begin
        let cand = wq *. (arj *. arj) /. arq2 in
        if cand > st.dw.(j) then st.dw.(j) <- cand
      end;
      if st.dw.(j) > !maxw then maxw := st.dw.(j)
    end
  done;
  st.dw.(st.basis.(r)) <- Float.max (wq /. arq2) 1.;
  if !maxw > devex_reset then Array.fill st.dw 0 st.total 1.

(* Entering-variable choice.  Returns (j, sigma) where sigma = +1 to
   increase from lower bound, -1 to decrease from upper bound.  Devex
   score d^2 / weight; Bland mode takes the first improving index. *)
let price st ~bland =
  btran_costs st;
  let best = ref (-1) and best_sigma = ref 1. and best_score = ref 0. in
  (* Bland mode stops at the first improving index *)
  let next = ref 0 in
  while !next < st.total && ((not bland) || !best < 0) do
    let j = !next in
    incr next;
    if st.basic_row.(j) < 0 && st.lb.(j) < st.ub.(j) then begin
      let d = reduced_cost st j in
      let at_lb = st.x.(j) <= st.lb.(j) +. feas_eps in
      let at_ub = st.x.(j) >= st.ub.(j) -. feas_eps in
      let free = (not at_lb) && not at_ub in
      (* improving direction; 0. when there is none *)
      let sigma =
        if (at_lb || free) && d < -.dual_eps then 1.
        else if (at_ub || free) && d > dual_eps then -1.
        else 0.
      in
      if sigma <> 0. then begin
        let score = if bland then 1. else d *. d /. st.dw.(j) in
        if !best < 0 || score > !best_score then begin
          best := j;
          best_sigma := sigma;
          best_score := score
        end
      end
    end
  done;
  if !best < 0 then None else Some (!best, !best_sigma)

type step = Step_ok | Step_unbounded

type ratio = Ratio_flip | Ratio_pivot of int * float * bool | Ratio_unbounded

(* Harris two-pass ratio test over st.w for entering column j moving in
   direction sigma; Bland mode keeps the classic single pass with
   smallest-index tie-breaking. *)
let ratio_test st ~bland j sigma =
  let m = st.core.P.m in
  let own_limit =
    let range = st.ub.(j) -. st.lb.(j) in
    if Float.is_finite range then range else infinity
  in
  if bland then begin
    let limit = ref own_limit and leave = ref (-1) and leave_to_ub = ref false in
    for i = 0 to m - 1 do
      let wi = st.w.(i) *. sigma in
      if abs_float wi > pivot_eps then begin
        let bi = st.basis.(i) in
        let xi = st.x.(bi) in
        let t, to_ub =
          if wi > 0. then ((xi -. st.lb.(bi)) /. wi, false)
          else ((st.ub.(bi) -. xi) /. -.wi, true)
        in
        let t = max t 0. in
        if t < !limit -. 1e-10 then begin
          limit := t;
          leave := i;
          leave_to_ub := to_ub
        end
        else if t <= !limit +. 1e-10 && !leave >= 0 && bi < st.basis.(!leave)
        then begin
          leave := i;
          leave_to_ub := to_ub
        end
      end
    done;
    if !limit = infinity then Ratio_unbounded
    else if !leave < 0 then Ratio_flip
    else Ratio_pivot (!leave, !limit, !leave_to_ub)
  end
  else begin
    (* pass 1: tightest ratio with bounds relaxed by harris_tol *)
    let theta_max = ref infinity in
    for i = 0 to m - 1 do
      let wi = st.w.(i) *. sigma in
      if abs_float wi > pivot_eps then begin
        let bi = st.basis.(i) in
        let room =
          if wi > 0. then st.x.(bi) -. st.lb.(bi) else st.ub.(bi) -. st.x.(bi)
        in
        let t = (room +. harris_tol) /. abs_float wi in
        if t < !theta_max then theta_max := t
      end
    done;
    if own_limit <= !theta_max then
      if own_limit = infinity then Ratio_unbounded else Ratio_flip
    else begin
      (* pass 2: numerically largest pivot among eligible rows *)
      let leave = ref (-1)
      and leave_to_ub = ref false
      and best_piv = ref 0.
      and leave_t = ref 0. in
      for i = 0 to m - 1 do
        let wi = st.w.(i) *. sigma in
        if abs_float wi > pivot_eps then begin
          let bi = st.basis.(i) in
          let room, to_ub =
            if wi > 0. then (st.x.(bi) -. st.lb.(bi), false)
            else (st.ub.(bi) -. st.x.(bi), true)
          in
          let t = max 0. (room /. abs_float wi) in
          if t <= !theta_max && abs_float st.w.(i) > !best_piv then begin
            best_piv := abs_float st.w.(i);
            leave := i;
            leave_to_ub := to_ub;
            leave_t := t
          end
        end
      done;
      if !leave < 0 then Ratio_unbounded
      else Ratio_pivot (!leave, !leave_t, !leave_to_ub)
    end
  end

(* Ratio test + pivot for entering column [j] moving in direction
   [sigma].  Implements bound flips and basis changes. *)
let step st ~bland j sigma =
  ftran st j;
  let m = st.core.P.m in
  match ratio_test st ~bland j sigma with
  | Ratio_unbounded -> Step_unbounded
  | Ratio_flip ->
    let t = st.ub.(j) -. st.lb.(j) in
    if t > feas_eps then st.degen_streak <- 0
    else st.degen_streak <- st.degen_streak + 1;
    for i = 0 to m - 1 do
      let bi = st.basis.(i) in
      st.x.(bi) <- st.x.(bi) -. (sigma *. t *. st.w.(i))
    done;
    (* snap to the opposite bound to kill drift *)
    st.x.(j) <- (if sigma > 0. then st.ub.(j) else st.lb.(j));
    Step_ok
  | Ratio_pivot (r, t, to_ub) ->
    if t > feas_eps then st.degen_streak <- 0
    else st.degen_streak <- st.degen_streak + 1;
    st.x.(j) <- st.x.(j) +. (sigma *. t);
    if t > 0. then
      for i = 0 to m - 1 do
        let bi = st.basis.(i) in
        st.x.(bi) <- st.x.(bi) -. (sigma *. t *. st.w.(i))
      done;
    let out = st.basis.(r) in
    st.x.(out) <- (if to_ub then st.ub.(out) else st.lb.(out));
    if not bland then devex_update st r j st.w.(r);
    Lu.update st.lu r st.w;
    incr st.updates;
    st.basis.(r) <- j;
    st.basic_row.(out) <- -1;
    st.basic_row.(j) <- r;
    maybe_refactor st;
    Step_ok

let iterate st ~max_iters ~phase1 =
  let unbounded = ref false and hit_limit = ref false in
  let continue_ = ref true in
  while !continue_ do
    if st.iters >= max_iters then begin
      hit_limit := true;
      continue_ := false
    end
    else begin
      let bland = st.degen_streak > bland_after in
      match price st ~bland with
      | None -> continue_ := false
      | Some (j, sigma) -> (
        st.iters <- st.iters + 1;
        match step st ~bland j sigma with
        | Step_ok -> ()
        | Step_unbounded ->
          if phase1 then
            (* phase-1 objective is bounded below by 0; an "unbounded"
              ray here is numerical noise *)
            continue_ := false
          else begin
            unbounded := true;
            continue_ := false
          end)
    end
  done;
  if !unbounded then Unbounded else if !hit_limit then Iter_limit else Optimal

let current_cost st =
  let s = ref 0. in
  for j = 0 to st.total - 1 do
    if st.cost.(j) <> 0. then s := !s +. (st.cost.(j) *. st.x.(j))
  done;
  !s

let snapshot st =
  let n = st.core.P.n and m = st.core.P.m in
  let status =
    Array.init (n + m) (fun j ->
        if st.basic_row.(j) >= 0 then 0
        else begin
          let at_lb =
            Float.is_finite st.lb.(j) && st.x.(j) <= st.lb.(j) +. feas_eps
          in
          let at_ub =
            Float.is_finite st.ub.(j) && st.x.(j) >= st.ub.(j) -. feas_eps
          in
          if at_lb then 0 else if at_ub then 1 else 2
        end)
  in
  { Basis.bs_m = m; bs_nm = n + m; bs_basis = Array.copy st.basis;
    bs_status = status }

(* Shared optimal exit: final refactorization for numerical hygiene
   (skipped when the factorization is already fresh), basis reporting
   for cut generation, warm snapshot, objective in the problem's own
   direction. *)
let finish_optimal st ?basis_sink ?snapshot_sink () =
  let core = st.core in
  let n = core.P.n and m = core.P.m in
  if Lu.eta_count st.lu > 0 then
    (try refactor st "final" with Singular_basis -> ());
  (match basis_sink with
  | None -> ()
  | Some sink ->
    (* basis info for cut generation: basic column per row plus, for
       every structural/slack column, whether it sits at its upper
       bound; artificials are fixed at 0 and never reported at upper *)
    let at_upper =
      Array.init (n + m) (fun j ->
          st.basic_row.(j) < 0
          && Float.is_finite st.ub.(j)
          && st.x.(j) >= st.ub.(j) -. feas_eps
          && not (st.x.(j) <= st.lb.(j) +. feas_eps && st.lb.(j) = st.ub.(j)))
    in
    let values = Array.sub st.x 0 (n + m) in
    sink := Some (Array.copy st.basis, at_upper, values));
  (match snapshot_sink with
  | None -> ()
  | Some sink -> sink := Some (snapshot st));
  let internal = ref 0. in
  for v = 0 to n - 1 do
    internal := !internal +. (core.P.cost.(v) *. st.x.(v))
  done;
  let objective =
    core.P.obj_constant
    +. (match core.P.dir with Lp.Minimize -> !internal | Lp.Maximize -> -. !internal)
  in
  { status = Optimal; objective; x = Array.sub st.x 0 n; iterations = st.iters }

let make_state ~updates ~trace ~worker core wlb wub =
  let n = core.P.n and m = core.P.m in
  let total = n + m + m in
  {
    core;
    total;
    lb = wlb;
    ub = wub;
    cost = Array.make total 0.;
    x = Array.make total 0.;
    basis = Array.init m (fun i -> n + m + i);
    basic_row = Array.make total (-1);
    (* empty placeholder; [factorize] installs the real factorization
       before any solve touches it *)
    lu = Lu.factor ~m:0 (fun _ _ -> ()) [||];
    y = Array.make m 0.;
    w = Array.make m 0.;
    rho = Array.make m 0.;
    dw = Array.make total 1.;
    iters = 0;
    ecap = Lu.base_eta_cap;
    degen_streak = 0;
    updates;
    trace;
    t_worker = worker;
  }

let working_bounds core lb ub =
  let n = core.P.n in
  let wlb = Array.copy core.P.lb0 and wub = Array.copy core.P.ub0 in
  (match lb with Some l -> Array.blit l 0 wlb 0 n | None -> ());
  (match ub with Some u -> Array.blit u 0 wub 0 n | None -> ());
  let bad = ref false in
  for v = 0 to n - 1 do
    if wlb.(v) > wub.(v) +. 1e-12 then bad := true
  done;
  (wlb, wub, !bad)

let default_max_iters core =
  20_000 + (60 * (core.P.m + core.P.n))

let solve_core ?max_iters ?lb ?ub ?basis_sink ?snapshot_sink
    ?(updates = ref 0) ?(trace = Rfloor_trace.disabled) ?(worker = 0)
    (core : P.t) =
  let n = core.P.n and m = core.P.m in
  let max_iters =
    match max_iters with Some k -> k | None -> default_max_iters core
  in
  let wlb, wub, bad_bounds = working_bounds core lb ub in
  if bad_bounds then
    { status = Infeasible; objective = nan; x = Array.make n nan; iterations = 0 }
  else begin
    let st = make_state ~updates ~trace ~worker core wlb wub in
    for i = 0 to m - 1 do
      st.basic_row.(n + m + i) <- i
    done;
    (* nonbasic start: nearest finite bound, or 0 for free variables *)
    for j = 0 to n + m - 1 do
      st.x.(j) <-
        (if Float.is_finite st.lb.(j) then st.lb.(j)
         else if Float.is_finite st.ub.(j) then st.ub.(j)
         else 0.)
    done;
    (* artificial values = residuals; sign determines their bounds and
       phase-1 costs *)
    let resid = Array.copy core.P.b in
    for j = 0 to n + m - 1 do
      let xj = st.x.(j) in
      if xj <> 0. then sub_col core resid j xj
    done;
    let need_phase1 = ref false in
    for i = 0 to m - 1 do
      let s = n + i and a = n + m + i in
      if resid.(i) >= st.lb.(s) -. 1e-12 && resid.(i) <= st.ub.(s) +. 1e-12
      then begin
        (* slack crash: the row is satisfied with its own slack basic;
           the artificial is fixed out, phase 1 never touches it *)
        st.basis.(i) <- s;
        st.basic_row.(s) <- i;
        st.basic_row.(a) <- -1;
        st.x.(s) <- min st.ub.(s) (max st.lb.(s) resid.(i));
        st.x.(a) <- 0.;
        st.lb.(a) <- 0.;
        st.ub.(a) <- 0.;
        st.cost.(a) <- 0.
      end
      else begin
        st.x.(a) <- resid.(i);
        if resid.(i) >= 0. then begin
          st.lb.(a) <- 0.;
          st.ub.(a) <- infinity;
          st.cost.(a) <- 1.
        end
        else begin
          st.lb.(a) <- neg_infinity;
          st.ub.(a) <- 0.;
          st.cost.(a) <- -1.
        end;
        if abs_float resid.(i) > feas_eps then need_phase1 := true
      end
    done;
    (* the crash basis is a mix of unit slack/artificial columns, so
       this first factorization is trivially nonsingular *)
    (try factorize st "initial" with Singular_basis -> assert false);
    let fail_status status =
      { status; objective = nan; x = Array.sub st.x 0 n; iterations = st.iters }
    in
    let phase1_result =
      if not !need_phase1 then Optimal
      else begin
        let r = iterate st ~max_iters ~phase1:true in
        match r with
        | Iter_limit -> Iter_limit
        | Optimal | Unbounded | Infeasible ->
          if abs_float (current_cost st) > 1e-6 then Infeasible else Optimal
      end
    in
    match phase1_result with
    | Iter_limit -> fail_status Iter_limit
    | Infeasible -> fail_status Infeasible
    | Unbounded | Optimal -> (
      (* fix artificials at zero and install phase-2 costs *)
      for i = 0 to m - 1 do
        let a = n + m + i in
        st.lb.(a) <- 0.;
        st.ub.(a) <- 0.;
        st.cost.(a) <- 0.;
        if st.basic_row.(a) < 0 then st.x.(a) <- 0.
      done;
      Array.fill st.cost 0 st.total 0.;
      Array.blit core.P.cost 0 st.cost 0 n;
      st.degen_streak <- 0;
      Array.fill st.dw 0 st.total 1.;
      match iterate st ~max_iters:(max_iters + st.iters) ~phase1:false with
      | Iter_limit -> fail_status Iter_limit
      | Infeasible -> fail_status Infeasible
      | Unbounded -> fail_status Unbounded
      | Optimal -> finish_optimal st ?basis_sink ?snapshot_sink ())
  end

(* ------------------------------------------------------------------ *)
(* Dual simplex warm start *)

(* Install a parent basis snapshot against the current bounds and try
   to finish the solve with dual pivots.  Returns [None] whenever the
   warm path cannot certify the result — the caller then falls back to
   the cold two-phase solve. *)
let try_warm ~max_iters ~warm ~updates ~trace ~worker ~wlb ~wub
    ?basis_sink ?snapshot_sink (core : P.t) =
  let n = core.P.n and m = core.P.m in
  if warm.Basis.bs_m <> m || warm.Basis.bs_nm <> n + m then None
  else begin
    let st = make_state ~updates ~trace ~worker core wlb wub in
    Array.blit warm.Basis.bs_basis 0 st.basis 0 m;
    let valid = ref true in
    for i = 0 to m - 1 do
      let j = st.basis.(i) in
      if j < 0 || j >= st.total || st.basic_row.(j) >= 0 then valid := false
      else st.basic_row.(j) <- i
    done;
    if not !valid then None
    else begin
      (* artificials are fixed out of a warm solve *)
      for i = 0 to m - 1 do
        let a = n + m + i in
        st.lb.(a) <- 0.;
        st.ub.(a) <- 0.;
        st.cost.(a) <- 0.
      done;
      Array.blit core.P.cost 0 st.cost 0 n;
      match factorize st "warm" with
      | exception Singular_basis -> None
      | () ->
        (* nonbasic values from the recorded statuses, clamped to the
           (possibly flipped) current bounds *)
        for j = 0 to st.total - 1 do
          if st.basic_row.(j) < 0 then begin
            let status =
              if j < n + m then warm.Basis.bs_status.(j) else 0
            in
            st.x.(j) <-
              (match status with
              | 1 ->
                if Float.is_finite st.ub.(j) then st.ub.(j)
                else if Float.is_finite st.lb.(j) then st.lb.(j)
                else 0.
              | 2 -> 0.
              | _ ->
                if Float.is_finite st.lb.(j) then st.lb.(j)
                else if Float.is_finite st.ub.(j) then st.ub.(j)
                else 0.)
          end
        done;
        compute_basics st;
        (* the parent basis must still be dual feasible *)
        btran_costs st;
        let dual_ok = ref true in
        for j = 0 to st.total - 1 do
          if !dual_ok && st.basic_row.(j) < 0 && st.lb.(j) < st.ub.(j) then begin
            let d = reduced_cost st j in
            let at_lb = st.x.(j) <= st.lb.(j) +. feas_eps in
            let at_ub = st.x.(j) >= st.ub.(j) -. feas_eps in
            if at_lb && not at_ub then begin
              if d < -.warm_dual_tol then dual_ok := false
            end
            else if at_ub && not at_lb then begin
              if d > warm_dual_tol then dual_ok := false
            end
            else if (not at_lb) && not at_ub then begin
              if abs_float d > warm_dual_tol then dual_ok := false
            end
          end
        done;
        if not !dual_ok then None
        else begin
          let dual_cap = min max_iters (200 + (2 * m)) in
          let dual_iters = ref 0 in
          let ok = ref true and feasible = ref false in
          while !ok && not !feasible do
            (* most violated basic variable leaves *)
            let r = ref (-1) and viol = ref feas_eps and below = ref false in
            for i = 0 to m - 1 do
              let bi = st.basis.(i) in
              let under = st.lb.(bi) -. st.x.(bi) in
              let over = st.x.(bi) -. st.ub.(bi) in
              if under > !viol then begin
                viol := under;
                r := i;
                below := true
              end;
              if over > !viol then begin
                viol := over;
                r := i;
                below := false
              end
            done;
            if !r < 0 then feasible := true
            else if !dual_iters >= dual_cap then ok := false
            else begin
              incr dual_iters;
              btran_costs st;
              pivot_row st !r;
              (* dual ratio test: smallest |d_j / alpha_rj| among
                 columns whose move repairs the violation without
                 breaking dual feasibility; tie-break on pivot size *)
              let q = ref (-1) and best_ratio = ref infinity and best_piv = ref 0. in
              for j = 0 to st.total - 1 do
                if st.basic_row.(j) < 0 && st.lb.(j) < st.ub.(j) then begin
                  let arj = row_coef st j in
                  if abs_float arj > pivot_eps then begin
                    let at_lb = st.x.(j) <= st.lb.(j) +. feas_eps in
                    let at_ub = st.x.(j) >= st.ub.(j) -. feas_eps in
                    let free = (not at_lb) && not at_ub in
                    let eligible =
                      if free then true
                      else if !below then
                        (at_lb && arj < 0.) || (at_ub && arj > 0.)
                      else (at_lb && arj > 0.) || (at_ub && arj < 0.)
                    in
                    if eligible then begin
                      let d = reduced_cost st j in
                      let ratio = abs_float d /. abs_float arj in
                      if
                        ratio < !best_ratio -. 1e-12
                        || (ratio < !best_ratio +. 1e-12
                           && abs_float arj > !best_piv)
                      then begin
                        best_ratio := ratio;
                        best_piv := abs_float arj;
                        q := j
                      end
                    end
                  end
                end
              done;
              if !q < 0 then ok := false
              else begin
                ftran st !q;
                let wr = st.w.(!r) in
                if abs_float wr <= pivot_eps then ok := false
                else begin
                  let out = st.basis.(!r) in
                  let target =
                    if !below then st.lb.(out) else st.ub.(out)
                  in
                  let delta = target -. st.x.(out) in
                  let dq = -.delta /. wr in
                  let newq = st.x.(!q) +. dq in
                  if
                    newq < st.lb.(!q) -. feas_eps
                    || newq > st.ub.(!q) +. feas_eps
                  then
                    (* the entering variable would overshoot its own
                       bound (needs a bound-flipping ratio test) *)
                    ok := false
                  else begin
                    st.iters <- st.iters + 1;
                    for i = 0 to m - 1 do
                      let bi = st.basis.(i) in
                      st.x.(bi) <- st.x.(bi) -. (dq *. st.w.(i))
                    done;
                    st.x.(!q) <- newq;
                    st.x.(out) <- target;
                    Lu.update st.lu !r st.w;
                    incr st.updates;
                    st.basis.(!r) <- !q;
                    st.basic_row.(out) <- -1;
                    st.basic_row.(!q) <- !r;
                    maybe_refactor st
                  end
                end
              end
            end
          done;
          if not !ok then None
          else begin
            (* primal cleanup: normally zero iterations, but catches
               tolerance drift accumulated by the dual pivots *)
            st.degen_streak <- 0;
            match iterate st ~max_iters ~phase1:false with
            | Optimal ->
              Some (finish_optimal st ?basis_sink ?snapshot_sink ())
            | Iter_limit | Infeasible | Unbounded -> None
          end
        end
    end
  end

(* ------------------------------------------------------------------ *)
(* Public entry points *)

(* [f ~updates] runs one LP solve; when [trace] is enabled the solve
   is reported as one [Lp_solved] event.  A null-sink solve reads no
   clock. *)
let reported ~trace ~worker f =
  let updates = ref 0 in
  if not (Rfloor_trace.enabled trace) then f ~updates
  else begin
    let t0 = Rfloor_trace.now trace in
    let r = f ~updates in
    Rfloor_trace.emit trace ~worker
      (Lp_solved
         { iters = r.iterations; updates = !updates;
           seconds = Rfloor_trace.now trace -. t0 });
    r
  end

let solve ?max_iters ?(trace = Rfloor_trace.disabled) lp =
  Rfloor_trace.span trace Rfloor_trace.Event.Lp_solve (fun () ->
      reported ~trace ~worker:0 (fun ~updates ->
          solve_core ?max_iters ~updates ~trace (P.of_lp lp)))

module Core = struct
  include P

  let solve ?max_iters ?lb ?ub t = solve_core ?max_iters ?lb ?ub t

  let solve_with_basis ?max_iters ?lb ?ub t =
    let sink = ref None in
    let outcome = solve_core ?max_iters ?lb ?ub ~basis_sink:sink t in
    (outcome, !sink)

  let solve_warm ?max_iters ?lb ?ub ?warm ?(trace = Rfloor_trace.disabled)
      ?(worker = 0) t =
    let max_iters' =
      match max_iters with Some k -> k | None -> default_max_iters t
    in
    let snap = ref None in
    let outcome =
      reported ~trace ~worker @@ fun ~updates ->
      let wlb, wub, bad_bounds = working_bounds t lb ub in
      if bad_bounds then
        { status = Infeasible; objective = nan; x = Array.make t.P.n nan;
          iterations = 0 }
      else
        let warm_result =
          match warm with
          | None -> None
          | Some parent ->
            try_warm ~max_iters:max_iters' ~warm:parent ~updates ~trace
              ~worker ~wlb ~wub ~snapshot_sink:snap t
        in
        match warm_result with
        | Some outcome ->
          Rfloor_trace.emit trace ~worker (Lp_warm { result = "dual" });
          outcome
        | None ->
          if Option.is_some warm then
            Rfloor_trace.emit trace ~worker (Lp_warm { result = "fallback" });
          solve_core ?max_iters ?lb ?ub ~snapshot_sink:snap ~updates ~trace
            ~worker t
    in
    (outcome, !snap)
end
