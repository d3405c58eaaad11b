type 'a t = {
  ctor : unit -> 'a;
  reset : ('a -> unit) option;
  mutex : Mutex.t;
  mutable free : 'a list;
  stats : Pstats.t;
  cell : Pstats.cell Domain.DLS.key;
}

let create ~ctor ?reset () =
  let stats = Pstats.create () in
  let cell = Domain.DLS.new_key (fun () -> Pstats.register stats) in
  { ctor; reset; mutex = Mutex.create (); free = []; stats; cell }

let alloc t =
  let c = Domain.DLS.get t.cell in
  c.allocs <- c.allocs + 1;
  Mutex.lock t.mutex;
  let x =
    match t.free with
    | x :: rest ->
        t.free <- rest;
        Some x
    | [] -> None
  in
  Mutex.unlock t.mutex;
  match x with
  | Some x -> x
  | None ->
      c.creates <- c.creates + 1;
      t.ctor ()

let release t x =
  let c = Domain.DLS.get t.cell in
  c.frees <- c.frees + 1;
  (match t.reset with Some f -> f x | None -> ());
  Mutex.lock t.mutex;
  t.free <- x :: t.free;
  Mutex.unlock t.mutex

let with_obj t f =
  let x = alloc t in
  match f x with
  | v ->
      release t x;
      v
  | exception e ->
      release t x;
      raise e

let stats t = t.stats
