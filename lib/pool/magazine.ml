(* Each half is [||] until its first object, then a [tgt]-sized array
   whose first [_n] slots are live, the top of the stack last. *)
type 'a t = {
  tgt : int;
  mutable main : 'a array;
  mutable main_n : int;
  mutable aux : 'a array;
  mutable aux_n : int;
}

exception Empty

let create ~target =
  if target < 1 then invalid_arg "Pool.Magazine.create: target < 1";
  { tgt = target; main = [||]; main_n = 0; aux = [||]; aux_n = 0 }

let target t = t.tgt
let size_oracle t = t.main_n + t.aux_n

let get t =
  if t.main_n = 0 then begin
    if t.aux_n = 0 then raise_notrace Empty;
    (* Slide aux into main: the arrays trade places. *)
    let spare = t.main in
    t.main <- t.aux;
    t.main_n <- t.aux_n;
    t.aux <- spare;
    t.aux_n <- 0
  end;
  let n = t.main_n - 1 in
  t.main_n <- n;
  t.main.(n)

(* The first [n] slots of [a] as a list, top of the stack first: the
   order [install] serves a batch back in. *)
let to_list a n =
  let rec go i acc = if i = n then acc else go (i + 1) (a.(i) :: acc) in
  go 0 []

let put t x =
  let n = t.main_n in
  if n < Array.length t.main then begin
    (* LIFO traffic hands back the object the slot still holds: skip
       the store and its write barrier. *)
    if t.main.(n) != x then t.main.(n) <- x;
    t.main_n <- n + 1;
    `Ok
  end
  else if n = 0 then begin
    (* First object: [aux] is still unmade too. *)
    t.main <- Array.make t.tgt x;
    t.main_n <- 1;
    `Ok
  end
  else begin
    let flushed = if t.aux_n > 0 then `Flush (to_list t.aux t.aux_n) else `Ok in
    let spare = if Array.length t.aux = 0 then Array.make t.tgt x else t.aux in
    spare.(0) <- x;
    t.aux <- t.main;
    t.aux_n <- n;
    t.main <- spare;
    t.main_n <- 1;
    flushed
  end

let install t batch =
  if t.main_n <> 0 then invalid_arg "Pool.Magazine.install: main not empty";
  let n = min t.tgt (List.length batch) in
  (match batch with
  | x :: _ when Array.length t.main = 0 -> t.main <- Array.make t.tgt x
  | _ -> ());
  let rec fill i = function
    | x :: rest when i >= 0 ->
        t.main.(i) <- x;
        fill (i - 1) rest
    | rest -> rest
  in
  t.main_n <- n;
  fill (n - 1) batch

let drain t =
  let all = to_list t.main t.main_n @ to_list t.aux t.aux_n in
  t.main <- [||];
  t.main_n <- 0;
  t.aux <- [||];
  t.aux_n <- 0;
  all

let check_oracle t =
  let sized a = Array.length a = 0 || Array.length a = t.tgt in
  sized t.main && sized t.aux
  && t.main_n <= Array.length t.main
  && (t.aux_n = 0 || t.aux_n = Array.length t.aux)
