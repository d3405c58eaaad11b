type addr = int
type t = { words : int array }

let create ~words =
  if words <= 0 then invalid_arg "Sim.Memory.create: words must be positive";
  { words = Array.make words 0 }


let[@inline never] bad t a who =
  ignore (t : t);
  invalid_arg
    (Printf.sprintf "Sim.Memory.%s: address %d out of bounds [0, %d)" who a
       (Array.length t.words))

(* The bounds check is inlined at every call site (one compare and a
   cold branch); the error path stays out of line so [get]/[set] are
   small enough for the compiler to inline cross-module into the
   simulator's per-operation executors. *)
let[@inline] check t a who =
  if a < 0 || a >= Array.length t.words then bad t a who

let[@inline] get t a =
  check t a "get";
  Array.unsafe_get t.words a

let[@inline] set t a v =
  check t a "set";
  Array.unsafe_set t.words a v

let fill t a ~len v =
  check t a "fill";
  check t (a + len - 1) "fill";
  Array.fill t.words a len v

let blit_to_host_oracle t a ~len =
  check t a "blit_to_host_oracle";
  check t (a + len - 1) "blit_to_host_oracle";
  Array.sub t.words a len
