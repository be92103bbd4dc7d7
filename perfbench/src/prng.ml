(* Splitmix-style PRNG with explicit state: every input the benchmark
   makes is a pure function of the --seed argument. *)

type t = { mutable s : int64 }

let mix64 z =
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let make seed = { s = mix64 (Int64.of_int (seed + 0xB3AC4)) }

(* An independent stream per (seed, purpose, index). *)
let derive seed ~stream i = make ((seed * 7919) + (stream * 1_000_003) + i)

let next t =
  t.s <- Int64.add t.s 0x9E3779B97F4A7C15L;
  mix64 t.s

let int t n =
  if n <= 0 then invalid_arg "Prng.int: bound must be positive";
  Int64.to_int (Int64.rem (Int64.logand (next t) Int64.max_int) (Int64.of_int n))

let range t lo hi = lo + int t (hi - lo + 1)
let bool t = Int64.logand (next t) 1L = 1L
let pick t arr = arr.(int t (Array.length arr))
let float t = Int64.to_float (Int64.shift_right_logical (next t) 11) /. 9007199254740992.

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
