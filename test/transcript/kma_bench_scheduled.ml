(* kma_bench with the simulator's inline fast path off: every
   simulated operation goes through the scheduler.  The transcript's
   fast = scheduled rule runs every line through both binaries. *)

let () =
  Sim.Machine.set_fast_path_oracle false;
  Harness.main ()
