open Sim

type t = { si : int }

let of_bytes_host (kmem : Kmem.t) ~bytes =
  match Params.size_index_of_bytes (Ctx.params kmem) bytes with
  | Some si -> { si }
  | None ->
      invalid_arg
        (Printf.sprintf "Kma.Cookie: %d bytes exceeds the largest class"
           bytes)

let get (kmem : Kmem.t) ~bytes =
  Machine.work 8 (* the one-off translation call *);
  match Kmem.size_index kmem ~bytes with
  | Some si -> { si }
  | None ->
      invalid_arg
        (Printf.sprintf "Kma.Cookie: %d bytes exceeds the largest class"
           bytes)


let try_alloc (kmem : Kmem.t) c =
  let a = Kmem.alloc_class kmem ~si:c.si in
  if a = 0 then None else Some a

let alloc (kmem : Kmem.t) c =
  let a = Kmem.alloc_class kmem ~si:c.si in
  if a = 0 then raise Kmem.Kmem_exhausted;
  a

let free (kmem : Kmem.t) c a = Percpu.free kmem ~si:c.si a
