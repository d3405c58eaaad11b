type 'a t = {
  mutex : Mutex.t;
  mutable target : int;
  mutable max_batches : int;
  mutable stock : 'a list list;
  mutable nbatches : int;
  mutable loose : 'a list;  (* the bucket list: odd-sized returns *)
  mutable nloose : int;
}

let create ~target ~max_batches =
  if target < 1 then invalid_arg "Pool.Depot.create: target < 1";
  if max_batches < 0 then invalid_arg "Pool.Depot.create: max_batches < 0";
  {
    mutex = Mutex.create ();
    target;
    max_batches;
    stock = [];
    nbatches = 0;
    loose = [];
    nloose = 0;
  }

(* [with_lock] reports whether the lock was observed held at acquire
   time: a failed [try_lock] is exactly one other domain inside the
   depot, which is the contention signal the adaptive pool feeds on. *)
let with_lock t f =
  let contended = not (Mutex.try_lock t.mutex) in
  if contended then Mutex.lock t.mutex;
  match f () with
  | v ->
      Mutex.unlock t.mutex;
      (v, contended)
  | exception e ->
      Mutex.unlock t.mutex;
      raise e

let get t =
  with_lock t (fun () ->
      match t.stock with
      | b :: rest ->
          t.stock <- rest;
          t.nbatches <- t.nbatches - 1;
          Some b
      | [] ->
          if t.nloose = 0 then None
          else begin
            (* Fewer than [target] items: fits any magazine. *)
            let b = t.loose in
            t.loose <- [];
            t.nloose <- 0;
            Some b
          end)

let put t batch =
  with_lock t (fun () ->
      if t.nbatches >= t.max_batches then `Dropped
      else begin
        t.stock <- batch :: t.stock;
        t.nbatches <- t.nbatches + 1;
        `Kept
      end)

(* Regroup odd-sized returns into full target-sized batches — the
   paper's bucket list.  Overflow beyond the bound goes to the GC. *)
let put_partial t items =
  snd
    (with_lock t (fun () ->
         t.loose <- items @ t.loose;
         t.nloose <- t.nloose + List.length items;
         while t.nloose >= t.target do
           let rec take n acc rest =
             if n = 0 then (acc, rest)
             else
               match rest with
               | x :: tl -> take (n - 1) (x :: acc) tl
               | [] -> (acc, [])
           in
           let batch, rest = take t.target [] t.loose in
           t.loose <- rest;
           t.nloose <- t.nloose - t.target;
           if t.nbatches < t.max_batches then begin
             t.stock <- batch :: t.stock;
             t.nbatches <- t.nbatches + 1
           end
           (* else: dropped to the GC *)
         done))

let set_geometry t ~target ~max_batches =
  if target < 1 then invalid_arg "Pool.Depot.set_geometry: target < 1";
  if max_batches < 0 then invalid_arg "Pool.Depot.set_geometry: max_batches < 0";
  ignore
    (with_lock t (fun () ->
         t.target <- max t.target target;
         t.max_batches <- max t.max_batches max_batches))

let batches t = fst (with_lock t (fun () -> t.nbatches))
