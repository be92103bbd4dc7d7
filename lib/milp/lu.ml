(* Sparse LU of a simplex basis with a product-form update file.

   The factorization is left-looking: column j of the basis is
   scattered into a dense scratch vector, eliminated against the
   already-computed columns in pivot-step order, and the largest
   remaining entry (partial pivoting) becomes the step-j pivot.  L is
   stored column-wise in original-row coordinates with a unit diagonal
   implied; U is stored column-wise in pivot-step coordinates with an
   explicit diagonal.

   Basis changes append product-form etas (r, w, w_r) where w is the
   ftran image of the incoming column: the new basis is B·E with E the
   identity whose column r is w, so ftran applies the eta inverses
   oldest-first after the LU solve and btran applies the transposes
   newest-first before it.

   Storage is flat CSC throughout: column k of L is
   [l_idx/l_val.(l_start.(k) .. l_start.(k+1) - 1)], likewise U, and
   eta i is [e_idx/e_val.(e_start.(i) .. e_start.(i+1) - 1)] with its
   position and pivot in [e_r.(i)]/[e_piv.(i)].  Solves are plain loops
   over these arrays, so they allocate nothing.  Entry order inside a
   column is part of the numerics (btran sums in it): L columns run in
   reverse touch order, U columns in descending step order, etas in
   ascending position order. *)

exception Singular

type t = {
  m : int;
  perm : int array; (* pivot step -> original row *)
  rowpos : int array; (* original row -> pivot step *)
  l_start : int array; (* length m + 1 *)
  l_idx : int array; (* original row *)
  l_val : float array; (* multiplier *)
  u_start : int array; (* length m + 1 *)
  u_idx : int array; (* earlier pivot step *)
  u_val : float array;
  diag : float array;
  lu_fill : int;
  (* eta file, growable; the first n_etas slots are live, oldest first,
     and e_start.(n_etas) is the eta fill *)
  mutable n_etas : int;
  mutable e_r : int array; (* basis position of the replaced column *)
  mutable e_piv : float array; (* w.(e_r) *)
  mutable e_start : int array; (* length >= n_etas + 1 *)
  mutable e_idx : int array;
  mutable e_val : float array;
  mutable unstable : bool;
  fw : float array; (* solve scratch *)
}

let size t = t.m

let factor_pivot_tol = 1e-12
let eta_drop_tol = 1e-13
let eta_pivot_tol = 1e-9
let base_eta_cap = 64

(* [a] itself when it holds [need] slots, else a doubled copy of its
   first [len] entries padded with [zero]. *)
let grow a len need zero =
  if need <= Array.length a then a
  else begin
    let b = Array.make (max need (2 * Array.length a)) zero in
    Array.blit a 0 b 0 len;
    b
  end

let factor ~m col_iter basis =
  let perm = Array.make m (-1) in
  let rowpos = Array.make m (-1) in
  let diag = Array.make m 0. in
  let l_start = Array.make (m + 1) 0 and u_start = Array.make (m + 1) 0 in
  let l_idx = ref (Array.make (2 * m) 0) and l_val = ref (Array.make (2 * m) 0.) in
  let u_idx = ref (Array.make (2 * m) 0) and u_val = ref (Array.make (2 * m) 0.) in
  let x = Array.make m 0. in
  let touched = Array.make m false in
  let touch_list = Array.make m 0 in
  let ustep = Array.make m 0 and uval = Array.make m 0. in
  let nt = ref 0 in
  let scatter r c =
    if not touched.(r) then begin
      touched.(r) <- true;
      touch_list.(!nt) <- r;
      incr nt
    end;
    x.(r) <- x.(r) +. c
  in
  let fill = ref 0 in
  for j = 0 to m - 1 do
    nt := 0;
    col_iter basis.(j) scatter;
    (* left-looking elimination in step order; updates from step k only
       reach rows pivoted later, so an ascending scan is complete *)
    let nu = ref 0 in
    let li = !l_idx and lv = !l_val in
    for k = 0 to j - 1 do
      let pr = perm.(k) in
      if touched.(pr) && x.(pr) <> 0. then begin
        let ukj = x.(pr) in
        ustep.(!nu) <- k;
        uval.(!nu) <- ukj;
        incr nu;
        for p = l_start.(k) to l_start.(k + 1) - 1 do
          let r = li.(p) in
          if not touched.(r) then begin
            touched.(r) <- true;
            touch_list.(!nt) <- r;
            incr nt
          end;
          x.(r) <- x.(r) -. (lv.(p) *. ukj)
        done
      end
    done;
    let best = ref (-1) and bestv = ref 0. in
    for ti = 0 to !nt - 1 do
      let r = touch_list.(ti) in
      if rowpos.(r) < 0 then begin
        let a = abs_float x.(r) in
        if a > !bestv then begin
          bestv := a;
          best := r
        end
      end
    done;
    if !best < 0 || !bestv < factor_pivot_tol then raise Singular;
    let pr = !best in
    let d = x.(pr) in
    diag.(j) <- d;
    perm.(j) <- pr;
    rowpos.(pr) <- j;
    let l0 = l_start.(j) in
    l_idx := grow !l_idx l0 (l0 + !nt) 0;
    l_val := grow !l_val l0 (l0 + !nt) 0.;
    let li = !l_idx and lv = !l_val in
    let len = ref l0 in
    for ti = !nt - 1 downto 0 do
      let r = touch_list.(ti) in
      if rowpos.(r) < 0 && x.(r) <> 0. then begin
        li.(!len) <- r;
        lv.(!len) <- x.(r) /. d;
        incr len
      end
    done;
    l_start.(j + 1) <- !len;
    for ti = 0 to !nt - 1 do
      let r = touch_list.(ti) in
      touched.(r) <- false;
      x.(r) <- 0.
    done;
    let u0 = u_start.(j) in
    u_idx := grow !u_idx u0 (u0 + !nu) 0;
    u_val := grow !u_val u0 (u0 + !nu) 0.;
    let ui = !u_idx and uv = !u_val in
    for i = 0 to !nu - 1 do
      ui.(u0 + i) <- ustep.(!nu - 1 - i);
      uv.(u0 + i) <- uval.(!nu - 1 - i)
    done;
    u_start.(j + 1) <- u0 + !nu;
    fill := !fill + (!len - l0) + !nu + 1
  done;
  {
    m;
    perm;
    rowpos;
    l_start;
    l_idx = !l_idx;
    l_val = !l_val;
    u_start;
    u_idx = !u_idx;
    u_val = !u_val;
    diag;
    lu_fill = !fill;
    n_etas = 0;
    e_r = [||];
    e_piv = [||];
    e_start = [| 0 |];
    e_idx = [||];
    e_val = [||];
    unstable = false;
    fw = Array.make m 0.;
  }

let ftran t b =
  let m = t.m in
  let z = t.fw in
  let perm = t.perm and ls = t.l_start and li = t.l_idx and lv = t.l_val in
  (* L-solve: read b in original-row space, collect z in step space *)
  for k = 0 to m - 1 do
    let zk = b.(perm.(k)) in
    z.(k) <- zk;
    if zk <> 0. then
      for p = ls.(k) to ls.(k + 1) - 1 do
        let r = li.(p) in
        b.(r) <- b.(r) -. (lv.(p) *. zk)
      done
  done;
  (* U back-substitution; b's row-space values are dead, reuse it for
     the basis-position result *)
  let us = t.u_start and ui = t.u_idx and uv = t.u_val and diag = t.diag in
  for j = m - 1 downto 0 do
    let yj = z.(j) /. diag.(j) in
    if yj <> 0. then
      for p = us.(j) to us.(j + 1) - 1 do
        let k = ui.(p) in
        z.(k) <- z.(k) -. (uv.(p) *. yj)
      done;
    b.(j) <- yj
  done;
  (* eta inverses, oldest first *)
  let er = t.e_r and ep = t.e_piv and es = t.e_start in
  let ei = t.e_idx and ev = t.e_val in
  for i = 0 to t.n_etas - 1 do
    let r = er.(i) in
    let br = b.(r) in
    if br <> 0. then begin
      let tp = br /. ep.(i) in
      for p = es.(i) to es.(i + 1) - 1 do
        let idx = ei.(p) in
        if idx = r then b.(idx) <- tp else b.(idx) <- b.(idx) -. (ev.(p) *. tp)
      done
    end
  done

let btran t c =
  let m = t.m in
  (* transposed etas, newest first; c stays basis-position indexed *)
  let er = t.e_r and ep = t.e_piv and es = t.e_start in
  let ei = t.e_idx and ev = t.e_val in
  for i = t.n_etas - 1 downto 0 do
    let r = er.(i) in
    let s = ref 0. in
    for p = es.(i) to es.(i + 1) - 1 do
      let idx = ei.(p) in
      if idx <> r then s := !s +. (ev.(p) *. c.(idx))
    done;
    c.(r) <- (c.(r) -. !s) /. ep.(i)
  done;
  (* U^T forward solve into step space *)
  let v = t.fw in
  let us = t.u_start and ui = t.u_idx and uv = t.u_val and diag = t.diag in
  for j = 0 to m - 1 do
    let s = ref c.(j) in
    for p = us.(j) to us.(j + 1) - 1 do
      s := !s -. (uv.(p) *. v.(ui.(p)))
    done;
    v.(j) <- !s /. diag.(j)
  done;
  (* L^T backward solve; L column k's rows pivot strictly after step k,
     so the in-place descending sweep only reads finished entries *)
  let ls = t.l_start and li = t.l_idx and lv = t.l_val and rowpos = t.rowpos in
  for k = m - 1 downto 0 do
    let s = ref v.(k) in
    for p = ls.(k) to ls.(k + 1) - 1 do
      s := !s -. (lv.(p) *. v.(rowpos.(li.(p))))
    done;
    v.(k) <- !s
  done;
  let perm = t.perm in
  for k = 0 to m - 1 do
    c.(perm.(k)) <- v.(k)
  done

(* Room for one more eta of at most [m] entries. *)
let reserve t =
  let n = t.n_etas in
  if n >= Array.length t.e_r then begin
    let cap = max 16 (2 * n) in
    t.e_r <- grow t.e_r n cap 0;
    t.e_piv <- grow t.e_piv n cap 0.;
    t.e_start <- grow t.e_start (n + 1) (cap + 1) 0
  end;
  let len = t.e_start.(n) in
  t.e_idx <- grow t.e_idx len (len + t.m) 0;
  t.e_val <- grow t.e_val len (len + t.m) 0.

let update t r w =
  reserve t;
  let n = t.n_etas in
  let ei = t.e_idx and ev = t.e_val in
  let len = ref t.e_start.(n) and maxa = ref 0. in
  for i = 0 to t.m - 1 do
    let wi = w.(i) in
    if wi <> 0. && (i = r || abs_float wi > eta_drop_tol) then begin
      ei.(!len) <- i;
      ev.(!len) <- wi;
      incr len;
      let a = abs_float wi in
      if a > !maxa then maxa := a
    end
  done;
  let wr = w.(r) in
  t.e_r.(n) <- r;
  t.e_piv.(n) <- wr;
  t.e_start.(n + 1) <- !len;
  t.n_etas <- n + 1;
  if abs_float wr < eta_pivot_tol *. (1. +. !maxa) then t.unstable <- true

let eta_count t = t.n_etas
let fill t = t.lu_fill
let unstable t = t.unstable

let needs_refactor ?(cap = base_eta_cap) t =
  t.unstable
  || t.n_etas >= cap
  || t.e_start.(t.n_etas) > 4 * (t.lu_fill + t.m)

let perm t = Array.copy t.perm

let dense_l t =
  let m = t.m in
  let a = Array.init m (fun _ -> Array.make m 0.) in
  for k = 0 to m - 1 do
    a.(k).(k) <- 1.;
    for p = t.l_start.(k) to t.l_start.(k + 1) - 1 do
      a.(t.rowpos.(t.l_idx.(p))).(k) <- t.l_val.(p)
    done
  done;
  a

let dense_u t =
  let m = t.m in
  let a = Array.init m (fun _ -> Array.make m 0.) in
  for j = 0 to m - 1 do
    a.(j).(j) <- t.diag.(j);
    for p = t.u_start.(j) to t.u_start.(j + 1) - 1 do
      a.(t.u_idx.(p)).(j) <- t.u_val.(p)
    done
  done;
  a
