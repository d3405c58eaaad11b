(* kma_bench: one subcommand per paper artifact, each defined in
   lib/harness's table.  See DESIGN.md for the experiment index and
   EXPERIMENTS.md for recorded results. *)

let () = Harness.main ()
