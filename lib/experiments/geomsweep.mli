(** Experiment E12 — cache-geometry sweep.

    The paper's cache-profile analysis (Design section) reasons about
    line size against block layout and per-CPU cache capacity against
    working set, but on fixed hardware; with {!Sim.Geometry} those are
    runtime knobs, so this experiment turns the argument into data.
    For each geometry point it runs a burst workload — each CPU
    repeatedly allocates a burst of blocks, writes every word of each
    (a consumer actually using its memory), then frees the burst: the
    Figure 7 cell, {!Workload.Bestcase.run}, at [~depth] with every
    word touched — on the new allocator and on the cookie allocator,
    and reports cycles per alloc/write/free pair and the cache miss
    mix.  The burst's working set is sized to overflow the smaller
    geometries, so line size (which at fixed line count is also
    capacity) and associativity both move the numbers.

    Two axes, costs held at the defaults so every delta is a geometry
    effect: the line-size sweep (4–32 words, fully associative) shows
    how larger lines change sharing behaviour; the associativity sweep
    (direct-mapped to 4-way at the default 8-word line, against the
    fully-associative paper default) shows the conflict misses a real
    set-indexed cache would add on top. *)

type row = {
  line_words : int;
  ways : int;  (** 0 = fully associative (the recorded-results default) *)
  which : Baseline.Allocator.which;
  cycles_per_pair : float;
      (** elapsed virtual cycles over per-CPU pairs: the CPUs run
          concurrently, so this is the per-CPU cost of one
          alloc/write/free pair *)
  miss_pct : float;  (** (memory misses + remote-dirty) / all accesses *)
  c2c_pct : float;  (** remote-dirty (cache-to-cache) share alone *)
  pairs_per_sec : float;
}

val run :
  ?jobs:int ->
  ?points:(int * int) list ->
  ?whichs:Baseline.Allocator.which list ->
  ?ncpus:int ->
  ?iters:int ->
  ?depth:int ->
  ?bytes:int ->
  unit ->
  row list
(** [run ()] sweeps [points], [(line_words, ways)] pairs (default: a
    line sweep at full associativity, then an associativity sweep at the
    default line size), for newkma and cookie on a fresh 8-CPU machine
    per cell ([jobs] fans cells across domains; results
    are in canonical order regardless).  [depth] is the burst size —
    blocks held live at once per CPU. *)

val print : ?ncpus:int -> ?depth:int -> row list -> unit
(** [print rows] renders the E12 table.  [ncpus]/[depth] only label the
    heading (defaults match {!run}); pass the values the rows were run
    with. *)
