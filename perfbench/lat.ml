(* Latency histogram: exact buckets below 64, then 16 log-linear
   sub-buckets per octave.  Quantiles interpolate linearly inside the
   bucket the rank falls in (the grouped-data rule), so a reported
   percentile moves with the data instead of snapping to a bucket
   midpoint that would read the same on every run.  Single-writer;
   per-domain histograms are merged after the join. *)

let exact = 64
let sub_bits = 4
let sub = 1 lsl sub_bits
let top = 46 (* highest octave kept: ~7e13 ns *)
let nbuckets = exact + ((top - 5) * sub)

type t = { counts : int array; mutable n : int }

let create () = { counts = Array.make nbuckets 0; n = 0 }

let rec msb v i = if v <= 1 then i else msb (v lsr 1) (i + 1)

let bucket v =
  if v < exact then max v 0
  else
    let m = min (msb v 0) top in
    let v = min v ((1 lsl (top + 1)) - 1) in
    exact + ((m - 6) * sub) + ((v lsr (m - sub_bits)) land (sub - 1))

let bounds b =
  if b < exact then (float_of_int b, float_of_int (b + 1))
  else
    let m = 6 + ((b - exact) / sub) and s = (b - exact) mod sub in
    let lo = (sub + s) lsl (m - sub_bits) in
    (float_of_int lo, float_of_int (lo + (1 lsl (m - sub_bits))))

let add t v =
  let b = bucket v in
  Array.unsafe_set t.counts b (Array.unsafe_get t.counts b + 1);
  t.n <- t.n + 1

let merge ~into t =
  Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) t.counts;
  into.n <- into.n + t.n

(* [L + (r - F) / f * w]: L and w the bucket's bounds, F the samples
   below it, f its own count, r = q * n the rank.  0 when empty. *)
let quantile t q =
  if t.n = 0 then 0.
  else
    let r = q *. float_of_int t.n in
    let rec go b below =
      let c = t.counts.(b) in
      if c > 0 && (float_of_int (below + c) > r || b = nbuckets - 1) then
        let lo, hi = bounds b in
        lo +. ((r -. float_of_int below) /. float_of_int c *. (hi -. lo))
      else go (b + 1) (below + c)
    in
    go 0 0

(* The same rule over integer samples (simulated cycles): every value
   is its own bucket of width 1. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then 0.
  else
    let r = q *. float_of_int n in
    let v = a.(min (n - 1) (int_of_float r)) in
    let rec first lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if a.(mid) < v then first (mid + 1) hi else first lo mid
    in
    let rec last lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if a.(mid) <= v then last (mid + 1) hi else last lo mid
    in
    let below = first 0 n in
    let f = last 0 n - below in
    float_of_int v +. ((r -. float_of_int below) /. float_of_int f)

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
