(* Program resumes per operation ([Sim.Machine.resumes_oracle]): the
   deterministic measure of the simulator's host cost.  A resume is a
   scheduler round trip into a program's fiber, the per-event cost that
   dominates host time, and unlike host time it does not drift with the
   machine the tests run on.  Each pin is an upper bound that a later
   change may only tighten; beside it is the count when every failed
   attempt on a held lock word still resumed its program. *)

let ratio n ~ops = float_of_int n /. float_of_int ops

(* Resumes [f] makes on [m]. *)
let resumes m f =
  let r0 = Sim.Machine.resumes_oracle m in
  f ();
  Sim.Machine.resumes_oracle m - r0

(* Twelve producer→consumer pairs on 24 CPUs with no think time, as in
   perfbench's [remote]: CPU 2p allocates blocks of 256 or 1024 bytes
   and CPU 2p+1 frees each one, so every block crosses CPUs, and the
   producers' refills and the consumers' overflows convoy on the global
   layer's per-size locks. *)
let producer_consumer () =
  let rng = Workload.Prng.create ~seed:21 in
  let pair =
    List.concat
      (List.init 250 (fun id ->
           [
             Workload.Trace.Alloc
               {
                 cpu = 0;
                 gap = 0;
                 id;
                 bytes = Workload.Prng.pick rng [| 256; 1024 |];
               };
             Workload.Trace.Free { cpu = 1; gap = 0; id };
           ]))
  in
  let trace = Workload.Trace.fan_out ~copies:12 pair in
  let m = Sim.Machine.create (Workload.Rig.paper_config ~ncpus:24 ()) in
  let a =
    Baseline.Allocator.of_kmem
      (Kma.Kmem.create m
         ~params:(Kma.Params.auto ~memory_words:(Sim.Machine.config m).memory_words)
         ())
  in
  let r = ref None in
  let n = resumes m (fun () -> r := Some (Workload.Trace.replay m trace a)) in
  let r = Option.get !r in
  Alcotest.(check int) "no failures" 0 r.Workload.Trace.failures;
  ratio n ~ops:r.Workload.Trace.ops

(* Figure 7's best-case loop for oldkma at 25 CPUs: every allocation and
   free takes the allocator's one lock, so 25 CPUs queue on it. *)
let fig7_oldkma () =
  let ncpus = 25 and iters = 40 and bytes = 256 in
  let which = Baseline.Allocator.Oldkma in
  let m, a = Workload.Rig.fresh which ~ncpus () in
  let n =
    resumes m (fun () ->
        Sim.Machine.run_symmetric m ~ncpus (fun _ ->
            for _ = 1 to iters do
              Sim.Machine.work 20 (* the loop's own charge *);
              let addr = Workload.Rig.alloc which ~ncpus a ~bytes in
              a.Baseline.Allocator.free ~addr ~bytes
            done))
  in
  ratio n ~ops:(2 * ncpus * iters)

let check_bound name ~bound v =
  if v > bound then
    Alcotest.failf "%s: %.3f resumes per operation, above the pinned %.2f"
      name v bound

(* 3.542 measured; 14.349 with every failed attempt resuming its
   program. *)
let test_producer_consumer () =
  check_bound "24-CPU producer-consumer replay" ~bound:3.6
    (producer_consumer ())

(* 13.357 measured: about one per acquisition for the winning attempt,
   the rest oldkma's own operations on shared lines, each beyond its
   CPU's horizon while the others spin; 273.044 with every failed
   attempt resuming its program. *)
let test_fig7_oldkma () =
  check_bound "fig7 oldkma at 25 CPUs" ~bound:13.5 (fig7_oldkma ())

let suite =
  [
    Alcotest.test_case "24-CPU producer-consumer replay" `Quick
      test_producer_consumer;
    Alcotest.test_case "fig7 oldkma at 25 CPUs" `Quick test_fig7_oldkma;
  ]
