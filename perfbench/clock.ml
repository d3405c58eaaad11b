(* Host monotonic clock in nanoseconds, as a plain int. *)
let[@inline] ns () = Int64.to_int (Monotonic_clock.now ())
let s_of_ns ns = float_of_int ns /. 1e9
