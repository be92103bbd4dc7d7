(* Frozen sequential branch-and-bound: the test oracle for
   {!Milp.Branch_bound}.

   A trimmed copy of the single-threaded loop the engine grew out of:
   depth-first search with nearest-child-first ordering and
   most-fractional branching, every node LP solved cold with
   [Simplex.Core.solve ~lb ~ub].  No warm start, trace, metrics,
   cancel, budget, external bound, priorities or Gomory cuts.  It is
   kept deliberately simple and must not change with the engine; only
   the differential tests call it. *)

open Milp

type result = {
  status : Branch_bound.status;
  incumbent : (float * float array) option;
      (** Objective (original direction) and variable values. *)
  nodes : int;
}

type node = { n_lb : float array; n_ub : float array; n_bound : float }

let mip_gap = 1e-6
let int_eps = 1e-6
let frac x = x -. Float.round x

(* most fractional integer variable; the first one wins ties *)
let pick_branch int_vars x =
  let best = ref None in
  List.iter
    (fun v ->
      let f = abs_float (frac x.(v)) in
      if f > int_eps then
        match !best with
        | Some (_, bf) when bf >= f -> ()
        | _ -> best := Some (v, f))
    int_vars;
  Option.map fst !best

let solve lp =
  let key obj =
    match Lp.objective_dir lp with Lp.Minimize -> obj | Lp.Maximize -> -.obj
  in
  let core = Simplex.Core.of_lp lp in
  let n = Lp.num_vars lp in
  let int_vars = Lp.integer_vars lp in
  let root_lb = Array.init n (fun v -> Lp.var_lb lp v) in
  let root_ub = Array.init n (fun v -> Lp.var_ub lp v) in
  List.iter
    (fun v ->
      if Float.is_finite root_lb.(v) then
        root_lb.(v) <- Float.round (ceil (root_lb.(v) -. 1e-9));
      if Float.is_finite root_ub.(v) then
        root_ub.(v) <- Float.round (floor (root_ub.(v) +. 1e-9)))
    int_vars;
  let inc = ref None and inc_key = ref infinity in
  let nodes = ref 0 in
  let incomplete = ref false and unbounded = ref false in
  let stack =
    ref [ { n_lb = root_lb; n_ub = root_ub; n_bound = neg_infinity } ]
  in
  (* NaN while there is no incumbent, so nothing prunes *)
  let cutoff () = !inc_key -. (mip_gap *. max 1. (abs_float !inc_key)) in
  while (not !unbounded) && !stack <> [] do
    match !stack with
    | [] -> ()
    | node :: rest -> (
      stack := rest;
      if node.n_bound >= cutoff () then ()
      else begin
        incr nodes;
        let r = Simplex.Core.solve ~lb:node.n_lb ~ub:node.n_ub core in
        match r.Simplex.status with
        | Simplex.Infeasible -> ()
        | Simplex.Iter_limit -> incomplete := true
        | Simplex.Unbounded -> unbounded := true
        | Simplex.Optimal -> (
          let bound = key r.Simplex.objective in
          if bound >= cutoff () then ()
          else
            match pick_branch int_vars r.Simplex.x with
            | None ->
              let x = Array.copy r.Simplex.x in
              List.iter (fun v -> x.(v) <- Float.round x.(v)) int_vars;
              let k = key (Lp.objective_value lp x) in
              if k < !inc_key then begin
                inc_key := k;
                inc := Some x
              end
            | Some v ->
              let f = r.Simplex.x.(v) in
              let fl = Float.round (floor (f +. int_eps)) in
              let down =
                let ub = Array.copy node.n_ub in
                ub.(v) <- min ub.(v) fl;
                { n_lb = node.n_lb; n_ub = ub; n_bound = bound }
              and up =
                let lb = Array.copy node.n_lb in
                lb.(v) <- max lb.(v) (fl +. 1.);
                { n_lb = lb; n_ub = node.n_ub; n_bound = bound }
              in
              let first, second = if frac f <= 0. then (down, up) else (up, down) in
              stack := first :: second :: !stack)
      end)
  done;
  let status =
    if !unbounded then Branch_bound.Unbounded
    else
      match (!inc, !incomplete) with
      | Some _, false -> Branch_bound.Optimal
      | Some _, true -> Branch_bound.Feasible
      | None, false -> Branch_bound.Infeasible
      | None, true -> Branch_bound.Unknown
  in
  let unkey k =
    match Lp.objective_dir lp with Lp.Minimize -> k | Lp.Maximize -> -.k
  in
  {
    status;
    incumbent = Option.map (fun x -> (unkey !inc_key, x)) !inc;
    nodes = !nodes;
  }
