type outcome = Tightened of int | Proven_infeasible

exception Infeasible_exn

let round_integer_bounds lp v =
  match Lp.var_kind lp v with
  | Lp.Continuous -> ()
  | Lp.Integer | Lp.Binary ->
    let lb = Lp.var_lb lp v and ub = Lp.var_ub lp v in
    let lb' = if Float.is_finite lb then ceil (lb -. 1e-9) else lb in
    let ub' = if Float.is_finite ub then floor (ub +. 1e-9) else ub in
    if lb' > ub' +. 1e-9 then raise Infeasible_exn;
    if lb' <> lb || ub' <> ub then Lp.set_bounds lp v ~lb:lb' ~ub:ub'

(* Minimum / maximum activity of [terms] excluding variable [skip]. *)
let activity_range lp terms ~skip =
  let lo = ref 0. and hi = ref 0. in
  List.iter
    (fun (c, v) ->
      if v <> skip then begin
        let lb = Lp.var_lb lp v and ub = Lp.var_ub lp v in
        if c > 0. then begin
          lo := !lo +. (c *. lb);
          hi := !hi +. (c *. ub)
        end
        else begin
          lo := !lo +. (c *. ub);
          hi := !hi +. (c *. lb)
        end
      end)
    terms;
  (!lo, !hi)

let tighten_body ~max_rounds ~rounds_out lp =
  let changes = ref 0 in
  let eps = 1e-9 in
  let round = ref 0 in
  rounds_out := 0;
  try
    List.iter (fun v -> round_integer_bounds lp v) (Lp.integer_vars lp);
    let changed = ref true in
    while !changed && !round < max_rounds do
      changed := false;
      incr round;
      Lp.iter_constrs lp (fun _ terms sense rhs ->
          List.iter
            (fun (c, v) ->
              let lo, hi = activity_range lp terms ~skip:v in
              let lb = Lp.var_lb lp v and ub = Lp.var_ub lp v in
              (* c*v + rest {<=,>=,=} rhs *)
              let new_ub_from le_rhs =
                (* c*v <= le_rhs - lo *)
                if Float.is_finite lo then
                  let bound = (le_rhs -. lo) /. c in
                  if c > 0. then
                    (if bound < ub -. eps then begin
                       if bound < lb -. 1e-7 then raise Infeasible_exn;
                       Lp.set_bounds lp v ~lb ~ub:(max lb bound);
                       incr changes;
                       changed := true
                     end)
                  else if bound > lb +. eps then begin
                    if bound > ub +. 1e-7 then raise Infeasible_exn;
                    Lp.set_bounds lp v ~lb:(min ub bound) ~ub;
                    incr changes;
                    changed := true
                  end
              in
              let new_lb_from ge_rhs =
                (* c*v >= ge_rhs - hi *)
                if Float.is_finite hi then
                  let bound = (ge_rhs -. hi) /. c in
                  if c > 0. then
                    (if bound > Lp.var_lb lp v +. eps then begin
                       let ub = Lp.var_ub lp v in
                       if bound > ub +. 1e-7 then raise Infeasible_exn;
                       Lp.set_bounds lp v ~lb:(min ub bound) ~ub;
                       incr changes;
                       changed := true
                     end)
                  else
                    let lb = Lp.var_lb lp v and ub = Lp.var_ub lp v in
                    if bound < ub -. eps then begin
                      if bound < lb -. 1e-7 then raise Infeasible_exn;
                      Lp.set_bounds lp v ~lb ~ub:(max lb bound);
                      incr changes;
                      changed := true
                    end
              in
              (match sense with
              | Lp.Le -> new_ub_from rhs
              | Lp.Ge -> new_lb_from rhs
              | Lp.Eq ->
                new_ub_from rhs;
                new_lb_from rhs);
              round_integer_bounds lp v)
            terms)
    done;
    rounds_out := !round;
    Tightened !changes
  with Infeasible_exn ->
    rounds_out := !round;
    Proven_infeasible

let tighten ?(max_rounds = 10) ?(trace = Rfloor_trace.disabled) lp =
  Rfloor_trace.span trace Rfloor_trace.Event.Presolve (fun () ->
      let rounds = ref 0 in
      let outcome = tighten_body ~max_rounds ~rounds_out:rounds lp in
      let changes, infeasible =
        match outcome with
        | Tightened n -> (n, false)
        | Proven_infeasible -> (0, true)
      in
      Rfloor_trace.emit trace
        (Rfloor_trace.Event.Presolved { rounds = !rounds; changes; infeasible });
      outcome)
