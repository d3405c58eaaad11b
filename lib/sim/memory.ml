type addr = int

(* A two-level store: word [a] lives at offset [a land page_mask] of
   page [a lsr page_shift].  Every page starts as [zero_page], shared
   by every memory in every domain and never written, and gets its own
   array on its first nonzero store, so a machine's host memory grows
   with the pages its run writes rather than with its configured size
   (the paper's vmblks reserve address space the same way and map a
   page only when it is used).  Every page array is [page_words] long,
   the short last one included: the bounds check against [words] is
   what keeps addresses inside the memory. *)
let page_shift = 12
let page_words = 1 lsl page_shift
let page_mask = page_words - 1
let zero_page = Array.make page_words 0

type t = { words : int; pages : int array array }

let create ~words =
  if words <= 0 then invalid_arg "Sim.Memory.create: words must be positive";
  { words; pages = Array.make ((words + page_mask) lsr page_shift) zero_page }

let[@inline never] bad t a who =
  invalid_arg
    (Printf.sprintf "Sim.Memory.%s: address %d out of bounds [0, %d)" who a
       t.words)

(* The bounds check is inlined at every call site (one compare and a
   cold branch); the error path stays out of line so [get]/[set] are
   small enough for the compiler to inline cross-module into the
   simulator's per-operation executors.  Past it, the page index is in
   bounds of [pages]. *)
let[@inline] check t a who = if a < 0 || a >= t.words then bad t a who

let[@inline] get t a =
  check t a "get";
  Array.unsafe_get
    (Array.unsafe_get t.pages (a lsr page_shift))
    (a land page_mask)

(* Page [i]'s own array, replacing the zero page it read through. *)
let[@inline never] materialize t i =
  let p = Array.make page_words 0 in
  Array.unsafe_set t.pages i p;
  p

(* A zero stored to an untouched page is already there. *)
let[@inline] set t a v =
  check t a "set";
  let i = a lsr page_shift in
  let p = Array.unsafe_get t.pages i in
  if p != zero_page then Array.unsafe_set p (a land page_mask) v
  else if v <> 0 then Array.unsafe_set (materialize t i) (a land page_mask) v

(* A range [a, a+len) is checked at both ends; an empty one only at
   [a]. *)
let check_range t a len who =
  if len < 0 then
    invalid_arg (Printf.sprintf "Sim.Memory.%s: negative length %d" who len);
  check t a who;
  if len > 0 then check t (a + len - 1) who

let fill t a ~len v =
  check_range t a len "fill";
  let stop = a + len in
  let a = ref a in
  while !a < stop do
    let off = !a land page_mask in
    let n = Int.min (page_words - off) (stop - !a) in
    let i = !a lsr page_shift in
    let p = Array.unsafe_get t.pages i in
    if p != zero_page then Array.fill p off n v
    else if v <> 0 then Array.fill (materialize t i) off n v;
    a := !a + n
  done

let blit_to_host_oracle t a ~len =
  check_range t a len "blit_to_host_oracle";
  Array.init len (fun k -> get t (a + k))

let materialized_pages_oracle t =
  Array.fold_left
    (fun n p -> if p != zero_page then n + 1 else n)
    0 t.pages
