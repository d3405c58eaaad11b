(* Shared fixtures for the allocator tests: a small machine and
   allocator so individual cases stay fast, plus helpers for running
   host-visible computations on simulated CPUs. *)

let small_params ?targets ?gbltargets ?phys_pages () =
  Kma.Params.make ~vmblk_pages:16 ?targets ?gbltargets ?phys_pages ()

let machine ?(ncpus = 4) ?(memory_words = 131072) ?(cache_lines = 0) () =
  Sim.Machine.create
    (Sim.Config.make ~ncpus ~memory_words
       ~geometry:{ Sim.Geometry.default with cache_lines }
       ())

let kmem ?ncpus ?memory_words ?cache_lines ?targets ?gbltargets ?phys_pages
    () =
  let m = machine ?ncpus ?memory_words ?cache_lines () in
  let k =
    Kma.Kmem.create m
      ~params:(small_params ?targets ?gbltargets ?phys_pages ())
      ()
  in
  (m, k)

(* Run [f] on simulated CPU 0 and return its result. *)
let on_cpu m f =
  let r = ref None in
  Sim.Machine.run m [| (fun _ -> r := Some (f ())) |];
  match !r with Some v -> v | None -> assert false

(* Run one function per CPU, collecting results. *)
let on_cpus m n f =
  let rs = Array.make n None in
  Sim.Machine.run m (Array.init n (fun _ cpu -> rs.(cpu) <- Some (f cpu)));
  Array.map (function Some v -> v | None -> assert false) rs

let ctx_of (k : Kma.Kmem.t) : Kma.Ctx.t = k
