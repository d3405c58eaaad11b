type 'a t = {
  data : 'a array;
  cap : int;
  dummy : 'a;
  mutable head : int;  (* total entries ever pushed *)
}

let create ~capacity ~dummy =
  if capacity < 1 then invalid_arg "Flightrec.Ring.create: capacity < 1";
  { data = Array.make capacity dummy; cap = capacity; dummy; head = 0 }

let push t x =
  t.data.(t.head mod t.cap) <- x;
  t.head <- t.head + 1

let length t = min t.head t.cap
let total t = t.head
let dropped t = max 0 (t.head - t.cap)

let iter t f =
  for i = dropped t to t.head - 1 do
    f t.data.(i mod t.cap)
  done

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun x -> acc := f !acc x);
  !acc

let to_list t = List.rev (fold t ~init:[] ~f:(fun acc x -> x :: acc))

let clear t =
  Array.fill t.data 0 t.cap t.dummy;
  t.head <- 0
