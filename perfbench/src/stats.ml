(* Order statistics over float samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks; 0 on an empty sample. *)
let quantile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs
let sum xs = List.fold_left ( +. ) 0. xs
let mean xs = match xs with [] -> 0. | _ -> sum xs /. float_of_int (List.length xs)
let maximum xs = List.fold_left Float.max 0. xs
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let div a b = if b = 0. then 0. else a /. b

(* The highest of p99, p95 and p90 with at least ten of [n] samples
   beyond it (p90 when none has), and its name. *)
let tail n =
  let q = List.find_opt (fun q -> float_of_int n *. (1. -. q) >= 10.) [ 0.99; 0.95 ] in
  let q = Option.value ~default:0.9 q in
  (q, Printf.sprintf "p%.0f" (100. *. q))
