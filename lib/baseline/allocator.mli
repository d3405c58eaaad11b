(** Uniform handle over every allocator arm the laboratory can race:
    the four the paper benchmarks plus the extension arms, so the
    experiment harness can drive any of them through one interface.

    Each [create_*] boots the corresponding allocator into a machine's
    memory (use a fresh machine per allocator — they each assume they
    own the address space). *)

type t = {
  name : string;
  alloc : bytes:int -> int;
      (** simulated; returns 0 on memory exhaustion *)
  free : addr:int -> bytes:int -> unit;  (** simulated *)
}

type which =
  | Cookie
  | Newkma
  | Numakma
      (** {!Newkma} with the per-node global layer enabled
          ([Kma.Kmem.create ~numa_global:true]): each NUMA node keeps a
          private gblfree pool, so cross-CPU frees stop ping-ponging
          one global lock line across the whole machine.  Identical to
          [Newkma] on a 1-node machine. *)
  | Mk
  | Oldkma
  | Lazybuddy
      (** the Lee–Barkley watermark lazy buddy from the paper's "Roads
          Not Taken" (an extension: not one of Figure 7's four traces) *)
  | Nbbuddy
      (** lock-free extension arm: the non-blocking buddy system after
          Marotta et al. — see {!Lockfree.Nbbuddy} and PAPERS.md *)
  | Bwfixed
      (** lock-free extension arm: Blelloch–Wei-style constant-time
          fixed-size allocation — see {!Lockfree.Bwfixed} and
          PAPERS.md *)

val all : which list
(** The paper's four Figure 7 traces, in legend order (the extension
    arms are not included). *)

val extras : which list
(** The extension arms beyond the paper's four: [Numakma] and
    [Lazybuddy] plus the lock-free pair. *)

val lockfree : which list
(** Just the lock-free arms ([Nbbuddy; Bwfixed]). *)

val roster : string list
(** Every recognised allocator name, [all] then [extras] — the list CLI
    error messages print. *)

val roster_string : string
(** [roster] joined with [", "]. *)

val name_of : which -> string

val max_bytes : which -> int option
(** The largest request the arm can serve: [Some 4096] for mk,
    lazybuddy and the lock-free pair, whose largest size class is the
    page; [None] for the arms that serve larger requests as whole-page
    spans, bounded only by memory. *)

val create : which -> Sim.Machine.t -> t
(** [create which machine] boots allocator [which] in [machine].  For
    [Cookie] the returned [alloc]/[free] use a per-size cookie cache, so
    every size the benchmark touches pays the translation only once —
    the paper's compile-time-size usage. *)

val of_kmem : ?cookie:bool -> Kma.Kmem.t -> t
(** [of_kmem kmem] is the arm over an already booted new allocator,
    for a caller that boots it with its own {!Kma.Params.t}: the
    newkma arm, or numakma when [kmem] has the per-node global layer.
    With [~cookie:true] it is the cookie arm: every size class's cookie
    is resolved once, and a request above the largest class goes to
    [kmem_alloc]. *)

type probe = {
  stats : Lockfree.Stats.t option;
      (** retry/helping counters when [which] is a lock-free arm
          ([None] for the lock-based allocators — their contention
          shows up as lock hold and spin time instead; see
          [Lockcheck]) *)
  drained : (unit -> string option) option;
      (** host-side full-drain oracle, for the lock-free arms ([None]
          for the others, which register none): with every block
          returned and the machine quiescent, it answers [Some msg]
          describing a conservation or structural-invariant violation,
          and [None] when the heap is clean. *)
  kmem : Kma.Kmem.t option;
      (** the booted new allocator behind the cookie, newkma and
          numakma arms ([None] for the others): the handle heapcheck,
          the page oracle and the pressure subsystem take *)
}

val create_probed : which -> Sim.Machine.t -> t * probe
(** [create_probed which machine] is {!create} plus the instance's
    observation probe. *)
