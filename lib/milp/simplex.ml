(* Sparse revised simplex over an LU-factorized basis.

   The basis inverse is never formed: every iteration works through
   {!Lu} ftran/btran solves against a sparse LU of the basis, extended
   by product-form etas after each pivot and refactorized from scratch
   when the eta file grows past its cap, accumulates fill, or absorbs a
   pivot too small to trust.  Pricing reads maintained reduced costs
   [d], recomputed by one btran of the costs at the start of every
   [iterate] and after every fresh factorization, and otherwise updated
   from the pivot row that the basis change computes anyway.  It is
   devex (reference-framework weights, reset on phase switches or
   weight blow-up) with a Bland's-rule fallback after a long degenerate
   streak; the ratio test is a two-pass Harris test that relaxes bounds
   by a small tolerance in pass one and then picks the numerically
   largest eligible pivot.

   Besides the classic cold two-phase primal solve there is a dual
   simplex path ({!Core.solve_warm}) for branch-and-bound children: a
   parent-optimal basis stays dual feasible after a branching bound
   flip, so the child re-solve starts from the parent {!Basis.t}
   snapshot and drives out primal infeasibility with dual pivots.  Its
   ratio test flips boxed candidates whose whole range cannot repair
   the leaving row (bound flipping), and a row that no candidate can
   repair is a Farkas proof that the child is infeasible.  Every
   remaining doubt on that path — a snapshot that does not fit,
   singular factorization, dual infeasibility beyond tolerance, an
   iteration cap, a pivot too small to trust, a Farkas margin within
   tolerance, a failed primal cleanup — falls back to the cold solve,
   which remains the correctness anchor. *)

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
  d : float array; (* reduced costs of the non-fixed nonbasics, length total *)
  mutable d_fresh : bool; (* [d] recomputed since the last pivot *)
  arow : float array; (* dual pivot row alpha_rj of the non-fixed nonbasics *)
  cand : int array; (* bound-flipping ratio test breakpoints ... *)
  cand_t : float array; (* ... and their ratios |d_j / alpha_rj| *)
  mutable flip_lo : int; (* cand.(flip_lo .. flip_hi - 1) flip bounds *)
  mutable flip_hi : int;
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

(* d := reduced costs from one btran of the costs.  Fixed columns
   never enter, so their entries are left at 0. *)
let refresh_duals st =
  btran_costs st;
  for j = 0 to st.total - 1 do
    st.d.(j) <-
      (if st.basic_row.(j) < 0 && st.lb.(j) < st.ub.(j) then reduced_cost st j
       else 0.)
  done;
  st.d_fresh <- true

(* Refactorization on the eta-file triggers; a singular fresh factor
   keeps the still-valid eta file and pushes the cap out instead. *)
let maybe_refactor st =
  if Lu.needs_refactor ~cap:st.ecap st.lu then begin
    let reason = if Lu.unstable st.lu then "stability" else "periodic" in
    match refactor st reason with
    | () -> refresh_duals st
    | exception Singular_basis -> st.ecap <- Lu.eta_count st.lu + Lu.base_eta_cap
  end

(* Primal basis change bookkeeping from the pivot row: [q] enters,
   position [r] leaves, [arq] is the pivot element.  Updates the
   reduced costs d_j -= (d_q / arq) * alpha_rj and, unless in Bland
   mode, the devex reference weights.  Uses the pre-update
   factorization, so it must run before [Lu.update]. *)
let pivot_update st ~bland r q arq =
  pivot_row st r;
  let theta = st.d.(q) /. arq in
  let wq = st.dw.(q) in
  let arq2 = arq *. arq in
  let maxw = ref 0. in
  for j = 0 to st.total - 1 do
    if j <> q && st.basic_row.(j) < 0 && st.lb.(j) < st.ub.(j) then begin
      let arj = row_coef st j in
      if arj <> 0. then begin
        st.d.(j) <- st.d.(j) -. (theta *. arj);
        if not bland then begin
          let cand = wq *. (arj *. arj) /. arq2 in
          if cand > st.dw.(j) then st.dw.(j) <- cand
        end
      end;
      if st.dw.(j) > !maxw then maxw := st.dw.(j)
    end
  done;
  let out = st.basis.(r) in
  st.d.(out) <- -.theta;
  st.d.(q) <- 0.;
  st.d_fresh <- false;
  if not bland then begin
    st.dw.(out) <- Float.max (wq /. arq2) 1.;
    if !maxw > devex_reset then Array.fill st.dw 0 st.total 1.
  end

(* Entering-variable choice on the maintained reduced costs.  Returns
   (j, sigma) where sigma = +1 to increase from lower bound, -1 to
   decrease from upper bound.  Devex score d^2 / weight; Bland mode
   takes the first improving index. *)
let price st ~bland =
  let best = ref (-1) and best_sigma = ref 1. and best_score = ref 0. in
  (* Bland mode stops at the first improving index *)
  let next = ref 0 in
  while !next < st.total && ((not bland) || !best < 0) do
    let j = !next in
    incr next;
    if st.basic_row.(j) < 0 && st.lb.(j) < st.ub.(j) then begin
      let d = st.d.(j) in
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
    pivot_update st ~bland r j st.w.(r);
    Lu.update st.lu r st.w;
    incr st.updates;
    st.basis.(r) <- j;
    st.basic_row.(out) <- -1;
    st.basic_row.(j) <- r;
    maybe_refactor st;
    Step_ok

let iterate st ~max_iters ~phase1 =
  refresh_duals st;
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
      | None ->
        (* optimality is only declared on freshly computed duals *)
        if st.d_fresh then continue_ := false else refresh_duals st
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
    d = Array.make total 0.;
    d_fresh = false;
    arow = Array.make total 0.;
    cand = Array.make total 0;
    cand_t = Array.make total 0.;
    flip_lo = 0;
    flip_hi = 0;
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

(* Why a warm attempt gave up; the label names the cold fallback in
   the trace ([Lp_warm]).  Only raising it allocates, once, on the way
   out of the attempt. *)
exception Fallback of string

let farkas_tol = 1e-6 (* remaining row infeasibility that proves the child infeasible *)
let row_drop = 1e-11 (* pivot-row entries this small are rounding noise *)

(* Breakpoint order of the bound-flipping ratio test: ascending ratio,
   the larger pivot first among ties. *)
let[@inline] before st a b =
  let ta = st.cand_t.(a) and tb = st.cand_t.(b) in
  ta < tb
  || (ta = tb
     && abs_float st.arow.(st.cand.(a)) > abs_float st.arow.(st.cand.(b)))

let swap_cand st a b =
  let j = st.cand.(a) and t = st.cand_t.(a) in
  st.cand.(a) <- st.cand.(b);
  st.cand_t.(a) <- st.cand_t.(b);
  st.cand.(b) <- j;
  st.cand_t.(b) <- t

(* restore the min-heap property of cand.(0 .. size - 1) below [i] *)
let rec sift_down st size i =
  let l = (2 * i) + 1 in
  if l < size then begin
    let c = if l + 1 < size && before st (l + 1) l then l + 1 else l in
    if before st c i then begin
      swap_cand st c i;
      sift_down st size c
    end
  end

(* Room of nonbasic [j] towards its other bound; a nonbasic off both
   bounds (free at zero) can move without limit. *)
let[@inline] room st j =
  if st.x.(j) <= st.lb.(j) +. feas_eps || st.x.(j) >= st.ub.(j) -. feas_eps then
    st.ub.(j) -. st.lb.(j)
  else infinity

(* [dual_ratio] results besides an entering column *)
let farkas_proof = -1 (* the row proves the child infeasible *)
let farkas_doubt = -2 (* it nearly does: within [farkas_tol] *)

(* Bound-flipping dual ratio test for the leaving row [r], whose basic
   variable must move by [viol] > 0 in direction [dir] (+1 up to its
   lower bound, -1 down to its upper bound) to reach [target].  The
   candidates are the nonbasics whose move repairs the row; their
   breakpoints |d_j / alpha_rj| are walked in ascending order from a
   heap in [cand].  A boxed candidate whose whole range leaves the row
   still infeasible flips to its other bound (the dual slope drops by
   |alpha_rj| * range); the first candidate that absorbs the rest
   enters and is returned.  The flips are left in
   cand.(flip_lo .. flip_hi - 1).  With every candidate flipped, the
   remaining slope is a Farkas certificate: the row cannot reach its
   bound over the whole box.  Pivots at or below [pivot_eps] are never
   chosen; their room is held against that certificate instead. *)
let dual_ratio st r ~dir ~viol ~target =
  pivot_row st r;
  let k = ref 0 and tiny = ref 0. in
  for j = 0 to st.total - 1 do
    if st.basic_row.(j) < 0 && st.lb.(j) < st.ub.(j) then begin
      let arj = row_coef st j in
      st.arow.(j) <- arj;
      if abs_float arj > row_drop then begin
        let at_lb = st.x.(j) <= st.lb.(j) +. feas_eps in
        let at_ub = (not at_lb) && st.x.(j) >= st.ub.(j) -. feas_eps in
        let s = arj *. dir in
        let free = (not at_lb) && not at_ub in
        if free || (at_lb && s < 0.) || (at_ub && s > 0.) then
          if abs_float arj > pivot_eps then begin
            let dj = st.d.(j) in
            let slack = if free then abs_float dj else if at_lb then dj else -.dj in
            st.cand.(!k) <- j;
            st.cand_t.(!k) <- Float.max 0. slack /. abs_float arj;
            incr k
          end
          else tiny := !tiny +. (abs_float arj *. room st j)
      end
    end
  done;
  for i = (!k / 2) - 1 downto 0 do
    sift_down st !k i
  done;
  let slope = ref viol and hs = ref !k and q = ref (-1) in
  while !q < 0 && !hs > 0 do
    decr hs;
    swap_cand st 0 !hs;
    sift_down st !hs 0;
    let j = st.cand.(!hs) in
    let absorbed = abs_float st.arow.(j) *. room st j in
    if !slope -. absorbed > feas_eps then slope := !slope -. absorbed
    else q := j
  done;
  st.flip_lo <- (if !q >= 0 then !hs + 1 else !hs);
  st.flip_hi <- !k;
  if !q >= 0 then !q
  else if !slope -. !tiny > farkas_tol *. (1. +. abs_float target) then
    farkas_proof
  else farkas_doubt

(* Move every flipped candidate to its other bound and update the
   basics with one ftran of the combined column. *)
let apply_flips st =
  if st.flip_lo < st.flip_hi then begin
    let m = st.core.P.m in
    Array.fill st.rho 0 m 0.;
    for k = st.flip_lo to st.flip_hi - 1 do
      let j = st.cand.(k) in
      let dest =
        if st.x.(j) <= st.lb.(j) +. feas_eps then st.ub.(j) else st.lb.(j)
      in
      sub_col st.core st.rho j (dest -. st.x.(j));
      st.x.(j) <- dest
    done;
    (* rho = -B^-1 * sum_j a_j * delta_j, the change of x_B *)
    Lu.ftran st.lu st.rho;
    for i = 0 to m - 1 do
      let bi = st.basis.(i) in
      st.x.(bi) <- st.x.(bi) +. st.rho.(i)
    done
  end

(* Install the parent basis: basic columns, nonbasic values from the
   recorded statuses clamped to the child's bounds, basics, and fresh
   reduced costs.  Raises [Fallback] when the snapshot does not fit the
   problem, the basis is singular, or it is no longer dual feasible. *)
let install_warm st (warm : Basis.t) =
  let core = st.core in
  let n = core.P.n and m = core.P.m in
  if warm.Basis.bs_m <> m || warm.Basis.bs_nm <> n + m then
    raise (Fallback "shape");
  Array.blit warm.Basis.bs_basis 0 st.basis 0 m;
  for i = 0 to m - 1 do
    let j = st.basis.(i) in
    if j < 0 || j >= st.total || st.basic_row.(j) >= 0 then
      raise (Fallback "shape");
    st.basic_row.(j) <- i
  done;
  (* artificials are fixed out of a warm solve *)
  for i = 0 to m - 1 do
    let a = n + m + i in
    st.lb.(a) <- 0.;
    st.ub.(a) <- 0.;
    st.cost.(a) <- 0.
  done;
  Array.blit core.P.cost 0 st.cost 0 n;
  (try factorize st "warm" with Singular_basis -> raise (Fallback "singular"));
  for j = 0 to st.total - 1 do
    if st.basic_row.(j) < 0 then begin
      let status = if j < n + m then warm.Basis.bs_status.(j) else 0 in
      st.x.(j) <-
        (match status with
        | 1 ->
          if Float.is_finite st.ub.(j) then st.ub.(j)
          else if Float.is_finite st.lb.(j) then st.lb.(j)
          else 0.
        | 2 ->
          (* free at zero in the parent; the child's bounds may now
             exclude zero *)
          Float.min st.ub.(j) (Float.max st.lb.(j) 0.)
        | _ ->
          if Float.is_finite st.lb.(j) then st.lb.(j)
          else if Float.is_finite st.ub.(j) then st.ub.(j)
          else 0.)
    end
  done;
  compute_basics st;
  refresh_duals st;
  (* the parent basis must still be dual feasible *)
  for j = 0 to st.total - 1 do
    if st.basic_row.(j) < 0 && st.lb.(j) < st.ub.(j) then begin
      let d = st.d.(j) in
      let at_lb = st.x.(j) <= st.lb.(j) +. feas_eps in
      let at_ub = st.x.(j) >= st.ub.(j) -. feas_eps in
      let bad =
        if at_lb && not at_ub then d < -.warm_dual_tol
        else if at_ub && not at_lb then d > warm_dual_tol
        else (not at_lb) && (not at_ub) && abs_float d > warm_dual_tol
      in
      if bad then raise (Fallback "dual_infeasible")
    end
  done

(* Install a parent basis snapshot against the current bounds and try
   to finish the solve with dual pivots.  Raises [Fallback] whenever
   the warm path cannot certify the result — the caller then falls
   back to the cold two-phase solve. *)
let try_warm ~max_iters ~warm ~updates ~trace ~worker ~wlb ~wub
    ?basis_sink ?snapshot_sink (core : P.t) =
  let n = core.P.n and m = core.P.m in
  let st = make_state ~updates ~trace ~worker core wlb wub in
  install_warm st warm;
  let dual_cap = min max_iters (200 + (2 * m)) in
  let dual_iters = ref 0 and infeasible = ref false and feasible = ref false in
  while not (!feasible || !infeasible) do
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
    else if !dual_iters >= dual_cap then raise (Fallback "iter_cap")
    else begin
      incr dual_iters;
      let r = !r in
      let out = st.basis.(r) in
      let target = if !below then st.lb.(out) else st.ub.(out) in
      let dir = if !below then 1. else -1. in
      let q = dual_ratio st r ~dir ~viol:!viol ~target in
      if q = farkas_proof then infeasible := true
      else if q = farkas_doubt then raise (Fallback "farkas_margin")
      else begin
        apply_flips st;
        ftran st q;
        let wr = st.w.(r) in
        (* the column image must confirm the row's pivot element *)
        if abs_float wr <= pivot_eps || wr *. st.arow.(q) <= 0. then
          raise (Fallback "small_pivot");
        st.iters <- st.iters + 1;
        (* primal step: [out] lands on its bound, [q] becomes basic
           (possibly infeasible, then it leaves in a later pivot) *)
        let dq = -.(target -. st.x.(out)) /. wr in
        for i = 0 to m - 1 do
          let bi = st.basis.(i) in
          st.x.(bi) <- st.x.(bi) -. (dq *. st.w.(i))
        done;
        st.x.(q) <- st.x.(q) +. dq;
        st.x.(out) <- target;
        (* dual step from the row the ratio test computed *)
        let theta = st.d.(q) /. wr in
        for j = 0 to st.total - 1 do
          if st.basic_row.(j) < 0 && st.lb.(j) < st.ub.(j) then
            st.d.(j) <- st.d.(j) -. (theta *. st.arow.(j))
        done;
        st.d.(out) <- -.theta;
        st.d.(q) <- 0.;
        st.d_fresh <- false;
        Lu.update st.lu r st.w;
        incr st.updates;
        st.basis.(r) <- q;
        st.basic_row.(out) <- -1;
        st.basic_row.(q) <- r;
        maybe_refactor st
      end
    end
  done;
  if !infeasible then
    { status = Infeasible; objective = nan; x = Array.sub st.x 0 n;
      iterations = st.iters }
  else begin
    (* primal cleanup: normally zero iterations, but catches tolerance
       drift accumulated by the dual pivots *)
    st.degen_streak <- 0;
    match iterate st ~max_iters ~phase1:false with
    | Optimal -> finish_optimal st ?basis_sink ?snapshot_sink ()
    | Iter_limit | Infeasible | Unbounded -> raise (Fallback "cleanup")
  end

(* ------------------------------------------------------------------ *)
(* Public entry points *)

(* [f ~updates] runs one LP solve, reported as one [Lp_solved] event
   unless [trace] is disabled; a disabled solve reads no clock. *)
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
        let cold () =
          solve_core ?max_iters ?lb ?ub ~snapshot_sink:snap ~updates ~trace
            ~worker t
        in
        match warm with
        | None -> cold ()
        | Some parent -> (
          match
            try_warm ~max_iters:max_iters' ~warm:parent ~updates ~trace
              ~worker ~wlb ~wub ~snapshot_sink:snap t
          with
          | outcome ->
            Rfloor_trace.emit trace ~worker (Lp_warm { fallback = None });
            outcome
          | exception Fallback reason ->
            Rfloor_trace.emit trace ~worker
              (Lp_warm { fallback = Some reason });
            cold ())
    in
    (outcome, !snap)
end
