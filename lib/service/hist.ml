(* Log-scale latency histogram: exact buckets below 16 ns, then eight
   sub-buckets per octave (HDR-style), so any sample is placed within
   ~9 % of its true value with a fixed 488-slot array.  Single-writer;
   merge joins per-domain histograms for whole-service quantiles. *)

let sub = 8
let nbuckets = 488  (* 16 exact + (62 - 3) octaves * 8 sub-buckets *)

type t = {
  counts : int array;
  mutable n : int;
  mutable max_ns : int;
  mutable sum_ns : int;
}

let create () = { counts = Array.make nbuckets 0; n = 0; max_ns = 0; sum_ns = 0 }

let msb_index v =
  (* Position of the highest set bit; v > 0. *)
  let rec go v i = if v = 1 then i else go (v lsr 1) (i + 1) in
  go v 0

let bucket_of ns =
  if ns < 16 then ns
  else
    let m = msb_index ns in
    let shift = m - 3 in
    ((m - 3) * sub) + ((ns lsr shift) land (sub - 1)) + 8

(* Midpoint of the bucket's value range: inverse of [bucket_of] up to
   sub-bucket resolution. *)
let value_of idx =
  if idx < 16 then idx
  else
    let oct = ((idx - 8) / sub) + 3 in
    let s = (idx - 8) mod sub in
    let width = 1 lsl (oct - 3) in
    ((sub + s) * width) + (width / 2)

let add t ns =
  let ns = if ns < 0 then 0 else ns in
  let idx = bucket_of ns in
  let idx = if idx >= nbuckets then nbuckets - 1 else idx in
  t.counts.(idx) <- t.counts.(idx) + 1;
  t.n <- t.n + 1;
  t.sum_ns <- t.sum_ns + ns;
  if ns > t.max_ns then t.max_ns <- ns

let count_oracle t = t.n
let max_ns t = t.max_ns
let mean_ns t = if t.n = 0 then Float.nan else float_of_int t.sum_ns /. float_of_int t.n

let merge ~into src =
  for i = 0 to nbuckets - 1 do
    into.counts.(i) <- into.counts.(i) + src.counts.(i)
  done;
  into.n <- into.n + src.n;
  into.sum_ns <- into.sum_ns + src.sum_ns;
  if src.max_ns > into.max_ns then into.max_ns <- src.max_ns

let quantile t q =
  if t.n = 0 then Float.nan
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let rank = max 1 (int_of_float (ceil (q *. float_of_int t.n))) in
    let rec walk i seen =
      if i >= nbuckets then float_of_int t.max_ns
      else
        let seen = seen + t.counts.(i) in
        if seen >= rank then
          (* The highest occupied bucket holds the recorded maximum:
             report it exactly rather than the bucket midpoint. *)
          if seen = t.n then float_of_int t.max_ns
          else float_of_int (value_of i)
        else walk (i + 1) seen
    in
    walk 0 0
  end

let p50 t = quantile t 0.50
let p99 t = quantile t 0.99
let p999 t = quantile t 0.999
