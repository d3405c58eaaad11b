type 'a t = {
  ctor : unit -> 'a;
  reset : ('a -> unit) option;
  mutex : Mutex.t;
  mutable free : 'a list;
}

let create ~ctor ?reset () = { ctor; reset; mutex = Mutex.create (); free = [] }

let alloc t =
  Mutex.lock t.mutex;
  let x =
    match t.free with
    | x :: rest ->
        t.free <- rest;
        Some x
    | [] -> None
  in
  Mutex.unlock t.mutex;
  match x with Some x -> x | None -> t.ctor ()

let release t x =
  (match t.reset with Some f -> f x | None -> ());
  Mutex.lock t.mutex;
  t.free <- x :: t.free;
  Mutex.unlock t.mutex
