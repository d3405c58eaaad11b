open Sim

type result = {
  ncpus : int;
  transfers : int;
  cycles : int;
  transfers_per_sec : float;
  stats : Lockfree.Stats.t option;
}

(* Per-pair ring in the harness scratch region (words 16..1023 by repo
   convention — every allocator's control structures start at 1024): a
   cache-line-aligned record of [head, tail] plus a slot array.  Single
   producer, single consumer: plain reads and writes suffice. *)
let ring_slots = 16

let ring_base ~pair = 32 + (pair * (ring_slots + 16))
let ring_head ~pair = ring_base ~pair (* produced count *)
let ring_tail ~pair = ring_base ~pair + 8 (* consumed count, own line *)
let ring_slot ~pair i = ring_base ~pair + 16 + (i mod ring_slots)

let max_pairs = 20

let run ~which ~pairs ~blocks_per_pair ?(bytes = 256) ?config () =
  if pairs < 1 || pairs > max_pairs then
    invalid_arg "Workload.Crosscpu.run: pairs must be in [1, 20]";
  let ncpus = 2 * pairs in
  let m, a, probe = Rig.fresh_probed which ?config ~ncpus () in
  Machine.run_symmetric m ~ncpus (fun cpu ->
      let pair = cpu / 2 in
      if cpu land 1 = 0 then
        (* Producer. *)
        for i = 0 to blocks_per_pair - 1 do
          let addr = Rig.alloc which ~ncpus a ~bytes in
          (* Wait for a free slot. *)
          while Machine.read (ring_head ~pair) - Machine.read (ring_tail ~pair)
                >= ring_slots do
            Machine.spin_pause ()
          done;
          Machine.write (ring_slot ~pair i) addr;
          Machine.write (ring_head ~pair) (i + 1)
        done
      else
        (* Consumer. *)
        for i = 0 to blocks_per_pair - 1 do
          while Machine.read (ring_head ~pair) <= i do
            Machine.spin_pause ()
          done;
          let addr = Machine.read (ring_slot ~pair i) in
          a.Baseline.Allocator.free ~addr ~bytes;
          Machine.write (ring_tail ~pair) (i + 1)
        done);
  Rig.check_drained which ~ncpus probe;
  let cycles = Machine.elapsed m in
  let transfers = pairs * blocks_per_pair in
  {
    ncpus;
    transfers;
    cycles;
    transfers_per_sec =
      Rig.pairs_per_sec (Machine.config m) ~pairs:transfers ~cycles;
    stats = Option.map Lockfree.Stats.copy probe.Baseline.Allocator.stats;
  }
