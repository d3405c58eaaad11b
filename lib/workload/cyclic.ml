type result = {
  day_allocs : int;
  night_allocs : int;
  night_failures : int;
  day_peak_pages : int;
  night_pages : int;
  cycles : int;
}

let day_sizes = [| 16; 32; 64; 96; 128; 256 |]
let night_bytes = 4096

(* One day: churn small blocks with random lifetimes, ending with
   everything freed.  One night: allocate big blocks, touch them, free
   them. *)
let simulate (a : Baseline.Allocator.t) ~granted_pages ~days ~day_ops
    ~night_blocks =
  let rng = Prng.create ~seed:42 in
  let day_allocs = ref 0 in
  let night_allocs = ref 0 in
  let night_failures = ref 0 in
  let day_peak = ref 0 in
  let night_peak = ref 0 in
  for _day = 1 to days do
    (* Day phase. *)
    let live = ref [] in
    let nlive = ref 0 in
    for _ = 1 to day_ops do
      if !nlive > 0 && Prng.int rng ~bound:100 < 45 then begin
        match !live with
        | (addr, bytes) :: rest ->
            live := rest;
            decr nlive;
            a.Baseline.Allocator.free ~addr ~bytes
        | [] -> ()
      end
      else begin
        let bytes = Prng.pick rng day_sizes in
        let addr = a.Baseline.Allocator.alloc ~bytes in
        if addr <> 0 then begin
          incr day_allocs;
          live := (addr, bytes) :: !live;
          incr nlive
        end
      end
    done;
    day_peak := max !day_peak (granted_pages ());
    List.iter
      (fun (addr, bytes) -> a.Baseline.Allocator.free ~addr ~bytes)
      !live;
    (* Night phase: the freed day memory must be reusable as large
       blocks thanks to online coalescing. *)
    let night_live = ref [] in
    for _ = 1 to night_blocks do
      let addr = a.Baseline.Allocator.alloc ~bytes:night_bytes in
      if addr = 0 then incr night_failures
      else begin
        incr night_allocs;
        (* Touch the block the way a backup buffer is streamed. *)
        for w = 0 to 31 do
          Sim.Machine.write (addr + (w * 32)) w
        done;
        night_live := addr :: !night_live
      end
    done;
    night_peak := max !night_peak (granted_pages ());
    List.iter
      (fun addr -> a.Baseline.Allocator.free ~addr ~bytes:night_bytes)
      !night_live
  done;
  (!day_allocs, !night_allocs, !night_failures, !day_peak, !night_peak)

let run_kmem ?config ?(days = 3) ?(day_ops = 2000) ?(night_blocks = 40) () =
  let m, a, probe =
    Rig.fresh_probed Baseline.Allocator.Newkma ?config ~ncpus:1 ()
  in
  let kmem = Option.get probe.Baseline.Allocator.kmem in
  let out = ref None in
  Sim.Machine.run m
    [|
      (fun _ ->
        out :=
          Some
            (simulate a
               ~granted_pages:(fun () -> Kma.Kmem.granted_pages_oracle kmem)
               ~days ~day_ops ~night_blocks));
    |];
  let day_allocs, night_allocs, night_failures, day_peak_pages, night_pages =
    Option.get !out
  in
  {
    day_allocs;
    night_allocs;
    night_failures;
    day_peak_pages;
    night_pages;
    cycles = Sim.Machine.elapsed m;
  }
