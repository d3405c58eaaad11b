type t = {
  ncpus : int;
  memory_words : int;
  geometry : Geometry.t;
  uncached_words : int;
}

(* The only remaining width cap in the simulator: the scheduler heap
   packs (time, id) into one int with [Machine.id_bits] bits of id, and
   Machine statically asserts that [1 lsl id_bits >= max_cpus].  The
   cache sharer set is width-independent (an int-array word per 32 CPUs
   per line), so raising this cap only requires widening the heap
   packing — the assertion in machine.ml fails loudly if the two ever
   disagree. *)
let max_cpus = 1024

let validate t =
  let check cond msg = if not cond then invalid_arg ("Sim.Config: " ^ msg) in
  check
    (t.ncpus >= 1 && t.ncpus <= max_cpus)
    (Printf.sprintf "ncpus must be in [1, %d]" max_cpus);
  Geometry.validate t.geometry;
  check (t.geometry.nodes <= t.ncpus) "nodes must not exceed ncpus";
  check (t.memory_words > 0) "memory_words must be positive";
  check
    (t.memory_words mod t.geometry.line_words = 0)
    "memory_words must be a multiple of line_words";
  check
    (t.uncached_words >= 0 && t.uncached_words < t.memory_words)
    "uncached_words must fit below memory_words"

let default =
  {
    ncpus = 4;
    memory_words = 4 * 1024 * 1024;
    geometry = Geometry.default;
    uncached_words = 0;
  }

let make ?(geometry = default.geometry) ?(ncpus = default.ncpus)
    ?(memory_words = default.memory_words)
    ?(uncached_words = default.uncached_words) () =
  let t = { ncpus; memory_words; geometry; uncached_words } in
  validate t;
  t

let mhz = 50
let seconds_of_cycles _ cycles =
  float_of_int cycles /. (float_of_int mhz *. 1e6)

(* CPU-to-node mapping, shared by the cache model, the machine's
   per-node buses, and the NUMA-aware kma global layer so they can
   never disagree about topology: contiguous blocks, last node possibly
   short when nodes does not divide ncpus. *)
let node_of t cpu =
  let nodes = t.geometry.nodes in
  if nodes = 1 then 0 else cpu / ((t.ncpus + nodes - 1) / nodes)
