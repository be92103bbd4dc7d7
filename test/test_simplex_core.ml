(* Property tests for the sparse LU kernel under Simplex.

   Randomized bases (seeded; RFLOOR_TEST_SEED respected, failures print
   the case seed) are checked for the three contracts the revised
   simplex relies on:
   - factorization correctness: L·U = P·B entrywise;
   - ftran/btran are true solves: B·w = b and Bᵀ·y = c round-trip;
   - the product-form update file is exact: k column replacements via
     [Lu.update] answer ftran/btran identically (to rounding) to a
     fresh factorization of the replaced basis. *)

open Milp
module Prng = Generators.Prng

(* ------------------------------------------------------------------ *)
(* Random sparse bases *)

(* A permutation backbone with entries bounded away from zero makes the
   matrix structurally nonsingular; extra off-diagonal fill (which can
   still produce numerically singular draws — callers retry on
   [Lu.Singular]) exercises the elimination and pivoting paths. *)
let random_cols prng m =
  let backbone = Array.init m (fun i -> i) in
  Prng.shuffle prng backbone;
  let signed prng lo hi =
    let v = lo +. (float_of_int (Prng.int prng 1000) /. 1000. *. (hi -. lo)) in
    if Prng.bool prng then v else -.v
  in
  Array.init m (fun j ->
      let taken = Array.make m false in
      taken.(backbone.(j)) <- true;
      let entries = ref [ (backbone.(j), signed prng 0.5 4.) ] in
      let extra = Prng.int prng (1 + (m / 2)) in
      for _ = 1 to extra do
        let r = Prng.int prng m in
        if not taken.(r) then begin
          taken.(r) <- true;
          entries := (r, signed prng 0.05 2.) :: !entries
        end
      done;
      Array.of_list (List.rev !entries))

let col_iter cols j f = Array.iter (fun (r, c) -> f r c) cols.(j)

let factor_cols cols =
  let m = Array.length cols in
  Lu.factor ~m (col_iter cols) (Array.init m (fun j -> j))

(* Retry until a draw factors: keeps the test independent of how often
   random fill produces a (near-)singular matrix. *)
let rec random_factored prng m tries =
  let cols = random_cols prng m in
  match factor_cols cols with
  | lu -> (cols, lu)
  | exception Lu.Singular ->
    if tries <= 0 then Alcotest.fail "no nonsingular draw in 50 tries"
    else random_factored prng m (tries - 1)

let dense_of_cols cols =
  let m = Array.length cols in
  let b = Array.make_matrix m m 0. in
  Array.iteri (fun j col -> Array.iter (fun (r, c) -> b.(r).(j) <- c) col) cols;
  b

let max_abs a =
  Array.fold_left (fun acc row -> Array.fold_left (fun a v -> Float.max a (abs_float v)) acc row) 0. a

(* ------------------------------------------------------------------ *)
(* Property 1: L·U = P·B *)

let test_lu_reconstructs () =
  let base = Generators.base_seed () in
  for i = 0 to 59 do
    let seed = Generators.case_seed base i in
    let prng = Prng.make seed in
    let m = Prng.range prng 1 12 in
    let cols, lu = random_factored prng m 50 in
    let b = dense_of_cols cols in
    let l = Lu.dense_l lu and u = Lu.dense_u lu and perm = Lu.perm lu in
    let scale = 1. +. max_abs b in
    for k = 0 to m - 1 do
      for j = 0 to m - 1 do
        let lu_kj = ref 0. in
        for t = 0 to m - 1 do
          lu_kj := !lu_kj +. (l.(k).(t) *. u.(t).(j))
        done;
        let want = b.(perm.(k)).(j) in
        if abs_float (!lu_kj -. want) > 1e-8 *. scale then
          Alcotest.failf "seed %d (m=%d): (L*U)[%d][%d] = %.12g, (P*B) = %.12g"
            seed m k j !lu_kj want
      done
    done
  done

(* ------------------------------------------------------------------ *)
(* Property 2: ftran/btran solve B·w = b and Bᵀ·y = c *)

let check_ftran ~seed cols lu prng tag =
  let m = Array.length cols in
  let b = Array.init m (fun _ -> float_of_int (Prng.range prng (-9) 9)) in
  let w = Array.copy b in
  Lu.ftran lu w;
  (* recompose: sum_j w_j * col_j must reproduce b row-wise *)
  let got = Array.make m 0. in
  for j = 0 to m - 1 do
    if w.(j) <> 0. then
      Array.iter (fun (r, c) -> got.(r) <- got.(r) +. (c *. w.(j))) cols.(j)
  done;
  let scale = 1. +. Array.fold_left (fun a v -> Float.max a (abs_float v)) 0. w in
  for r = 0 to m - 1 do
    if abs_float (got.(r) -. b.(r)) > 1e-7 *. scale then
      Alcotest.failf "seed %d (m=%d, %s): ftran: (B*w)[%d] = %.12g, b = %.12g"
        seed m tag r got.(r) b.(r)
  done

let check_btran ~seed cols lu prng tag =
  let m = Array.length cols in
  let c = Array.init m (fun _ -> float_of_int (Prng.range prng (-9) 9)) in
  let y = Array.copy c in
  Lu.btran lu y;
  (* Bᵀ·y = c means each basis column dotted with y gives its cost *)
  let scale = 1. +. Array.fold_left (fun a v -> Float.max a (abs_float v)) 0. y in
  for j = 0 to m - 1 do
    let dot = ref 0. in
    Array.iter (fun (r, coef) -> dot := !dot +. (coef *. y.(r))) cols.(j);
    if abs_float (!dot -. c.(j)) > 1e-7 *. scale then
      Alcotest.failf "seed %d (m=%d, %s): btran: (B^T*y)[%d] = %.12g, c = %.12g"
        seed m tag j !dot c.(j)
  done

let test_ftran_btran_roundtrip () =
  let base = Generators.base_seed () + 7777 in
  for i = 0 to 59 do
    let seed = Generators.case_seed base i in
    let prng = Prng.make seed in
    let m = Prng.range prng 1 15 in
    let cols, lu = random_factored prng m 50 in
    for _ = 1 to 3 do
      check_ftran ~seed cols lu prng "fresh";
      check_btran ~seed cols lu prng "fresh"
    done
  done

(* ------------------------------------------------------------------ *)
(* Property 3: k product-form updates ≡ fresh factorization *)

(* Replace position [r]'s column through the public protocol (ftran the
   incoming column, then [Lu.update]); mirrors exactly what [Simplex]
   does at a basis change.  Retries draws whose spike pivot is too
   small to represent an invertible replacement. *)
let rec apply_update prng cols lu r tries =
  let m = Array.length cols in
  let newcol = (random_cols prng m).(Prng.int prng m) in
  let w = Array.make m 0. in
  Array.iter (fun (row, c) -> w.(row) <- w.(row) +. c) newcol;
  Lu.ftran lu w;
  if abs_float w.(r) < 1e-6 then
    if tries <= 0 then None
    else apply_update prng cols lu r (tries - 1)
  else begin
    Lu.update lu r w;
    cols.(r) <- newcol;
    Some ()
  end

let test_updates_match_fresh () =
  let base = Generators.base_seed () + 424242 in
  for i = 0 to 39 do
    let seed = Generators.case_seed base i in
    let prng = Prng.make seed in
    let m = Prng.range prng 2 12 in
    let cols, lu = random_factored prng m 50 in
    let k = Prng.range prng 1 8 in
    let applied = ref 0 in
    for _ = 1 to k do
      let r = Prng.int prng m in
      match apply_update prng cols lu r 20 with
      | Some () -> incr applied
      | None -> ()
    done;
    if Lu.eta_count lu <> !applied then
      Alcotest.failf "seed %d: eta_count %d after %d updates" seed
        (Lu.eta_count lu) !applied;
    (* the updated factorization must answer like a fresh one *)
    (match factor_cols cols with
    | fresh ->
      for _ = 1 to 3 do
        let b = Array.init m (fun _ -> float_of_int (Prng.range prng (-9) 9)) in
        let w_upd = Array.copy b and w_fresh = Array.copy b in
        Lu.ftran lu w_upd;
        Lu.ftran fresh w_fresh;
        let scale =
          1. +. Array.fold_left (fun a v -> Float.max a (abs_float v)) 0. w_fresh
        in
        for j = 0 to m - 1 do
          if abs_float (w_upd.(j) -. w_fresh.(j)) > 1e-6 *. scale then
            Alcotest.failf
              "seed %d (m=%d, %d updates): ftran[%d] updated %.12g vs fresh %.12g"
              seed m !applied j w_upd.(j) w_fresh.(j)
        done;
        let c = Array.init m (fun _ -> float_of_int (Prng.range prng (-9) 9)) in
        let y_upd = Array.copy c and y_fresh = Array.copy c in
        Lu.btran lu y_upd;
        Lu.btran fresh y_fresh;
        let scale =
          1. +. Array.fold_left (fun a v -> Float.max a (abs_float v)) 0. y_fresh
        in
        for r = 0 to m - 1 do
          if abs_float (y_upd.(r) -. y_fresh.(r)) > 1e-6 *. scale then
            Alcotest.failf
              "seed %d (m=%d, %d updates): btran[%d] updated %.12g vs fresh %.12g"
              seed m !applied r y_upd.(r) y_fresh.(r)
        done
      done
    | exception Lu.Singular ->
      (* every accepted update had |pivot| >= 1e-6, so the replaced
         basis is invertible; a singular fresh factor is a bug *)
      Alcotest.failf "seed %d: fresh refactorization singular after updates" seed);
    (* updated LU must still answer the *current* basis, directly *)
    check_ftran ~seed cols lu prng "updated";
    check_btran ~seed cols lu prng "updated"
  done

(* ------------------------------------------------------------------ *)
(* Refactorization triggers *)

let test_needs_refactor_cap () =
  let base = Generators.base_seed () + 99 in
  let seed = Generators.case_seed base 0 in
  let prng = Prng.make seed in
  let m = 8 in
  let cols, lu = random_factored prng m 50 in
  Alcotest.(check bool) "fresh factor trusted" false (Lu.needs_refactor lu);
  let applied = ref 0 in
  while !applied < 3 do
    let r = Prng.int prng m in
    match apply_update prng cols lu r 20 with
    | Some () -> incr applied
    | None -> ()
  done;
  Alcotest.(check bool) "below default cap" false
    (Lu.needs_refactor ~cap:64 lu);
  Alcotest.(check bool) "at explicit cap" true (Lu.needs_refactor ~cap:3 lu);
  Alcotest.(check bool) "stable so far" false (Lu.unstable lu)

let test_singular_detected () =
  (* a column of zeros and a duplicated column must both raise *)
  let zero_cols = [| [| (0, 1.) |]; [||] |] in
  (match factor_cols zero_cols with
  | _ -> Alcotest.fail "zero column factored"
  | exception Lu.Singular -> ());
  let dup_cols = [| [| (0, 1.); (1, 2.) |]; [| (0, 2.); (1, 4.) |] |] in
  match factor_cols dup_cols with
  | _ -> Alcotest.fail "rank-1 basis factored"
  | exception Lu.Singular -> ()

(* A hand-factored 3×3 arrow basis: columns {0:4, 1:1, 2:1}, {0:1, 1:4}
   and {0:1, 2:4} (7 nonzeros).  Elimination creates one L and one U
   fill-in, so L holds 2 + 1 multipliers, U holds 0 + 1 + 2 entries and
   the diagonal 3: fill = 9. *)
let arrow_cols =
  [| [| (0, 4.); (1, 1.); (2, 1.) |]; [| (0, 1.); (1, 4.) |]; [| (0, 1.); (2, 4.) |] |]

let test_needs_refactor_eta_fill () =
  let lu = factor_cols arrow_cols in
  Alcotest.(check int) "fill by hand" 9 (Lu.fill lu);
  Alcotest.(check int) "fresh eta count" 0 (Lu.eta_count lu);
  (* fill trigger: eta fill > 4 * (fill + m) = 48 stored eta nonzeros *)
  let spike r =
    let w = [| 0.5; -2.; 1.5 |] in
    w.(r) <- 1.;
    w
  in
  for k = 1 to 16 do
    Lu.update lu (k mod 3) (spike (k mod 3));
    Alcotest.(check bool)
      (Printf.sprintf "%d dense etas (%d nonzeros) within budget" k (3 * k))
      false (Lu.needs_refactor lu)
  done;
  Lu.update lu 0 (spike 0);
  Alcotest.(check int) "eta count by hand" 17 (Lu.eta_count lu);
  Alcotest.(check bool) "51 eta nonzeros trip the fill trigger" true
    (Lu.needs_refactor lu);
  Alcotest.(check bool) "well below the count cap" false
    (Lu.eta_count lu >= Lu.base_eta_cap);
  Alcotest.(check bool) "no unstable pivot" false (Lu.unstable lu);
  Alcotest.(check int) "factor fill unchanged by updates" 9 (Lu.fill lu);
  (* entries at or below the drop tolerance are not stored: two
     nonzeros per eta, so the trigger moves out to the 25th update *)
  let lu = factor_cols arrow_cols in
  for k = 1 to 24 do
    Lu.update lu 1 [| 1e-14; 1.; -3. |];
    Alcotest.(check bool)
      (Printf.sprintf "%d sparse etas within budget" k)
      false (Lu.needs_refactor lu)
  done;
  Lu.update lu 1 [| 1e-14; 1.; -3. |];
  Alcotest.(check bool) "50 eta nonzeros trip the fill trigger" true
    (Lu.needs_refactor lu)

(* ------------------------------------------------------------------ *)
(* Allocation per pivot *)

(* The smallest seeded floorplanning relaxation (random columnar device,
   relocation spec) with at least [min_rows] rows among [tries] draws. *)
let seeded_lp ~min_rows base tries =
  let rec go i best =
    if i >= tries then best
    else begin
      let prng = Prng.make (Generators.case_seed base i) in
      let part = Generators.random_partition prng in
      let spec = Generators.random_reloc_spec prng part in
      let lp = Rfloor.Model.lp (Rfloor.Model.build part spec) in
      let m = Lp.num_constrs lp in
      let best =
        match best with
        | Some b when Lp.num_constrs b <= m -> best
        | _ when m >= min_rows -> Some lp
        | _ -> best
      in
      go (i + 1) best
    end
  in
  match go 0 None with
  | Some lp -> lp
  | None -> Alcotest.failf "no seeded LP with >= %d rows in %d draws" min_rows tries

let minor_words f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. w0)

(* A cold solve plus a warm child after one bound flip must stay within
   4·m minor words per pivot in total: the pivot loop allocates nothing
   per column or per nonzero, only per pivot and per refactorization.
   A warm child may finish in a couple of pivots, so its per-solve
   set-up is amortized over both solves. *)
let test_alloc_per_pivot () =
  let lp = seeded_lp ~min_rows:200 (Generators.base_seed () + 5150) 40 in
  let core = Simplex.Core.of_lp lp in
  let m = Simplex.Core.num_rows core and n = Simplex.Core.num_vars core in
  let cold, cold_words = minor_words (fun () -> Simplex.Core.solve core) in
  if cold.Simplex.status <> Simplex.Optimal then
    Alcotest.fail "seeded relaxation is not LP-optimal";
  (* branch on the most fractional variable: child ub := floor x *)
  let _, snap = Simplex.Core.solve_warm core in
  let frac v = let x = cold.Simplex.x.(v) in abs_float (x -. Float.round x) in
  let v = ref 0 in
  for i = 1 to n - 1 do
    if frac i > frac !v then v := i
  done;
  let lb = Array.init n (Lp.var_lb lp) and ub = Array.init n (Lp.var_ub lp) in
  let x = cold.Simplex.x.(!v) in
  if frac !v > 1e-6 then ub.(!v) <- floor x
  else if x -. 1. >= lb.(!v) then ub.(!v) <- x -. 1.
  else lb.(!v) <- x +. 1.;
  let (child, _), child_words =
    minor_words (fun () -> Simplex.Core.solve_warm ~lb ~ub ?warm:snap core)
  in
  let pivots = cold.Simplex.iterations + child.Simplex.iterations in
  if pivots = 0 then Alcotest.fail "no pivots to measure";
  let per = (cold_words +. child_words) /. float_of_int pivots in
  if per > 4. *. float_of_int m then
    Alcotest.failf
      "%.0f minor words per pivot > 4m = %d (m=%d; cold %d pivots, %.0f words; \
       warm child %d pivots, %.0f words)"
      per (4 * m) m cold.Simplex.iterations cold_words child.Simplex.iterations
      child_words

(* [k] independent copies of the knapsack row
   10a + 10b + 2c + 10d <= 16 over the unit box, maximizing
   10a + 9b + 1.6c + 5d: the root has b = 0.6 basic in every row.  The
   child b <= 0 in every copy needs one dual pivot per row, and each
   of them flips c to its upper bound before d enters. *)
let flip_blocks k =
  let lp = Lp.create ~name:"flip_blocks" () in
  let obj = ref [] in
  for i = 0 to k - 1 do
    let var tag = Lp.add_var lp ~name:(Printf.sprintf "%s%d" tag i) ~lb:0. ~ub:1. () in
    let a = var "a" and b = var "b" and c = var "c" and d = var "d" in
    Lp.add_constr lp [ (10., a); (10., b); (2., c); (10., d) ] Lp.Le 16.;
    obj := (10., a) :: (9., b) :: (1.6, c) :: (5., d) :: !obj
  done;
  Lp.set_objective lp Lp.Maximize !obj;
  lp

let test_alloc_bound_flips () =
  let k = 200 in
  let lp = flip_blocks k in
  let core = Simplex.Core.of_lp lp in
  let m = Simplex.Core.num_rows core and n = Simplex.Core.num_vars core in
  let (root, snap), root_words =
    minor_words (fun () -> Simplex.Core.solve_warm core)
  in
  if root.Simplex.status <> Simplex.Optimal then Alcotest.fail "root not optimal";
  let lb = Array.make n 0. and ub = Array.init n (fun v -> if v mod 4 = 1 then 0. else 1.) in
  let (child, _), child_words =
    minor_words (fun () -> Simplex.Core.solve_warm ~lb ~ub ?warm:snap core)
  in
  let expected = 13.6 *. float_of_int k in
  if abs_float (child.Simplex.objective -. expected) > 1e-6 *. expected then
    Alcotest.failf "child objective %.9f, expected %.9f" child.Simplex.objective
      expected;
  (* the same child again, traced: served warm, one dual pivot per row *)
  let fallbacks = ref [] in
  let trace =
    Rfloor_trace.create
      ~sink:
        (Rfloor_trace.Sink.of_fn (fun e ->
             match e.Rfloor_trace.Event.payload with
             | Rfloor_trace.Event.Lp_warm { fallback = Some r } ->
               fallbacks := r :: !fallbacks
             | _ -> ()))
      ()
  in
  let again, _ = Simplex.Core.solve_warm ~lb ~ub ?warm:snap ~trace core in
  Alcotest.(check (list string)) "served warm" [] !fallbacks;
  Alcotest.(check int) "one dual pivot per row" k again.Simplex.iterations;
  let pivots = root.Simplex.iterations + child.Simplex.iterations in
  let per = (root_words +. child_words) /. float_of_int pivots in
  if per > 4. *. float_of_int m then
    Alcotest.failf
      "%.0f minor words per pivot > 4m = %d (m=%d; root %d pivots, %.0f words; \
       warm child %d pivots, %.0f words)"
      per (4 * m) m root.Simplex.iterations root_words child.Simplex.iterations
      child_words

let suites =
  [
    ( "simplex_core.lu",
      [
        Alcotest.test_case "L*U = P*B on random sparse bases" `Quick
          test_lu_reconstructs;
        Alcotest.test_case "ftran/btran round-trip" `Quick
          test_ftran_btran_roundtrip;
        Alcotest.test_case "k updates match a fresh factorization" `Quick
          test_updates_match_fresh;
        Alcotest.test_case "needs_refactor honors the eta cap" `Quick
          test_needs_refactor_cap;
        Alcotest.test_case "singular bases are rejected" `Quick
          test_singular_detected;
        Alcotest.test_case "eta fill trips needs_refactor before the cap"
          `Quick test_needs_refactor_eta_fill;
      ] );
    ( "simplex_core.alloc",
      [
        Alcotest.test_case "cold + warm child solves within 4m words/pivot"
          `Quick test_alloc_per_pivot;
        Alcotest.test_case "warm child with bound flips within 4m words/pivot"
          `Quick test_alloc_bound_flips;
      ] );
  ]
