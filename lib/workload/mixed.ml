type result = {
  ncpus : int;
  ops : int;
  cycles : int;
  ops_per_sec : float;
  failures : int;
}

(* At most this many blocks are live per CPU; beyond it the oldest is
   freed. *)
let live_window = 64

let run ~which ~ncpus ~ops_per_cpu ?config ?(seed = 7) () =
  let m, a = Rig.fresh which ?config ~ncpus () in
  let failures = Array.make ncpus 0 in
  let ops = Array.make ncpus 0 in
  let root = Prng.create ~seed in
  let rngs = Array.init ncpus (fun _ -> Prng.split root) in
  Sim.Machine.run_symmetric m ~ncpus (fun cpu ->
      let rng = rngs.(cpu) in
      let live = Queue.create () in
      let free_one () =
        match Queue.take_opt live with
        | Some (addr, bytes) ->
            a.Baseline.Allocator.free ~addr ~bytes;
            ops.(cpu) <- ops.(cpu) + 1
        | None -> ()
      in
      for _ = 1 to ops_per_cpu do
        if Queue.length live >= live_window || (Queue.length live > 0 && Prng.int rng ~bound:100 < 40)
        then free_one ()
        else begin
          let bytes = Prng.weighted rng Trace.size_mix in
          let addr = a.Baseline.Allocator.alloc ~bytes in
          ops.(cpu) <- ops.(cpu) + 1;
          if addr = 0 then failures.(cpu) <- failures.(cpu) + 1
          else Queue.add (addr, bytes) live
        end
      done;
      while Queue.length live > 0 do
        free_one ()
      done);
  let cycles = Sim.Machine.elapsed m in
  let total_ops = Array.fold_left ( + ) 0 ops in
  {
    ncpus;
    ops = total_ops;
    cycles;
    ops_per_sec =
      Rig.pairs_per_sec (Sim.Machine.config m) ~pairs:total_ops ~cycles;
    failures = Array.fold_left ( + ) 0 failures;
  }
