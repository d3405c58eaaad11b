type t = { mutable state : int }

(* A splitmix-style mixer adapted to OCaml's 63-bit native ints (the
   canonical 64-bit constants do not fit); multiplications wrap.  Good
   enough for workload generation and fault draws, and fully
   deterministic. *)
let gamma = 0x2545F4914F6CDD1D
let m1 = 0x2F58476D1CE4E5B9
let m2 = 0x14D049BB133111EB

let create ~seed = { state = seed lxor gamma }

let next t =
  t.state <- t.state + gamma;
  let z = t.state in
  let z = (z lxor (z lsr 30)) * m1 in
  let z = (z lxor (z lsr 27)) * m2 in
  (z lxor (z lsr 31)) land max_int

let split t = { state = next t }

let int t ~bound =
  if bound <= 0 then invalid_arg "Sim.Prng.int: bound <= 0";
  next t mod bound


let pick t arr =
  if Array.length arr = 0 then invalid_arg "Sim.Prng.pick: empty";
  arr.(int t ~bound:(Array.length arr))

let weighted t choices =
  let total =
    Array.fold_left
      (fun acc (w, _) ->
        if w < 0 then invalid_arg "Sim.Prng.weighted: negative weight";
        acc + w)
      0 choices
  in
  if total = 0 then invalid_arg "Sim.Prng.weighted: zero total weight";
  let r = int t ~bound:total in
  let rec go i acc =
    let w, v = choices.(i) in
    if r < acc + w then v else go (i + 1) (acc + w)
  in
  go 0 0
