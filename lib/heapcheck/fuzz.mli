(** Deterministic model-based differential fuzzer for the allocator.

    Drives [Kma.Kmem] on a simulated machine with a seeded
    {!Sim.Prng} over a weighted op mix — small allocs/frees,
    large (multi-page) allocs/frees, reap passes, per-CPU drains and
    VM-system fault-injection toggles — against a trivial host-side
    reference model (the live set), cross-checking {!Heapcheck.check}
    after every op (paranoid) or every [check_every] ops (sweep).
    This is correctness tooling for the reproduction of the paper's
    Design section, with no direct paper counterpart; the invariants
    it enforces are the checker's.

    Ops are abstract and self-relocating ([Free k] frees the [k mod
    nlive]-th live block of the replaying model), so {!minimize} can
    greedily delete ops from a failing trace and every remaining op
    stays meaningful.  Everything is deterministic: same config in,
    same trace, same outcome, same minimized counterexample. *)

(** One abstract operation.  [Corrupt] deliberately smashes an
    invariant host-side (self-test for the checker and minimizer;
    generated only when [config.corrupt] is set). *)
type op =
  | Alloc of int  (** small alloc; class = selector mod nsizes *)
  | Free of int  (** free the (selector mod nlive)-th live block *)
  | Alloc_large of int  (** multi-page alloc (2+ pages) *)
  | Free_large of int  (** free a live large allocation *)
  | Reap of bool  (** pressure reap pass; [true] = full *)
  | Drain of int  (** per-CPU cache drain for one class *)
  | Fault_on of int  (** arm VM fault injection (selector seeds it) *)
  | Fault_off  (** disarm VM fault injection *)
  | Corrupt of int  (** self-test: deliberately corrupt the heap *)

type config = {
  seed : int;
  ops : int;  (** trace length to generate *)
  check_every : int;  (** 1 = paranoid, n = sweep every n ops *)
  pressure : bool;  (** enable the {!Kma.Pressure} subsystem *)
  debug : bool;  (** debug kernel (poisoned frees) *)
  fault_rate : float;
      (** rate armed by [Fault_on] ops; 0 removes fault ops from the
          generated mix *)
  corrupt : bool;  (** generate [Corrupt] ops (self-test only) *)
  ncpus : int;
  memory_words : int;
  vmblk_pages : int;
}

val config :
  ?ops:int ->
  ?check_every:int ->
  ?pressure:bool ->
  ?debug:bool ->
  ?fault_rate:float ->
  ?corrupt:bool ->
  ?ncpus:int ->
  ?memory_words:int ->
  ?vmblk_pages:int ->
  seed:int ->
  unit ->
  config
(** Defaults: 10k ops, paranoid, pressure/debug/faults off, 1 CPU,
    256 Ki words of simulated memory, 16-page vmblks.
    @raise Invalid_argument on [ops < 0] or [check_every < 1]. *)

type failure = {
  index : int;  (** index of the op after which the check failed *)
  op : op;
  problems : string list;  (** violation details, checker rule first *)
}

type outcome = {
  checks : int;  (** consistency checks run *)
  allocs : int;  (** successful small allocations *)
  frees : int;
  cycles : int;  (** simulated cycles at the end of the run *)
  failure : failure option;  (** [None] = every check passed *)
}

val gen : config -> op list
(** Generate the seeded trace (pure; no machine involved). *)

val execute : config -> op list -> outcome
(** [execute cfg trace] builds a fresh machine + allocator and replays
    [trace] on simulated CPU 0, checking per [cfg.check_every];
    stops at the first failing check.  When {!Heapcheck.on}, each
    violation is also {!Heapcheck.note}d (flight-recorder events,
    report, abort mode). *)

val minimize : config -> op list -> op list
(** [minimize cfg trace] greedily shrinks a failing trace: truncate at
    the failure, then delete chunks (halving down to single ops) while
    the failure reproduces.  Returns [trace] unchanged if it does not
    fail.  Deterministic. *)

val pp_op : Format.formatter -> op -> unit
val pp_trace : Format.formatter -> op list -> unit
(** Numbered one-op-per-line rendering of a (minimized) trace. *)
