(** Test-and-set spinlock over a word of simulated memory.

    This is the synchronization primitive whose cost the paper's
    allocator is designed to avoid: acquiring it performs an atomic
    read-modify-write on a shared cache line, so under contention the
    lock line ping-pongs between CPUs and acquisition cost grows with the
    number of contenders.  All functions must run inside a simulated
    program (see {!Machine}).

    Invariants: locks are non-recursive and must be released by the
    acquiring CPU, which an [assert] checks host-side ({!Machine.peek},
    so the check costs no simulated cycles and the release is the
    paper's plain store); nested acquisitions must follow one global
    class order (in this codebase: gbl -> pagepool -> vmblk, see
    DESIGN.md "Concurrency invariants"); every acquire/release flows
    through this module so the {!Lockcheck} order graph sees it. *)

type t

val init : Memory.t -> Memory.addr -> t
(** [init mem a] initialises the word at [a] to unlocked (boot-time,
    uncharged) and returns the lock handle. *)

val register :
  addr:Memory.addr -> name:string -> cls:string -> vm_safe:bool -> unit
(** [register ~addr ~name ~cls ~vm_safe] names the lock at [addr] in
    both checkers' registries: the installed flight recorder's
    ({!Flightrec.Recorder.note_lock}) and lockcheck's
    ({!Lockcheck.register_lock}, with its lock-order class [cls] and
    whether the class may be held across a VM-system call).  Boot-time
    and host-side; a checker that is off ignores it, so install the
    recorder or enable lockcheck before the allocator boots. *)

val with_lock : t -> (unit -> 'a) -> 'a
(** [with_lock t f] runs [f ()] with the lock held, releasing on return.
    It acquires with {!Machine.spin_cas}: a compare-and-swap of the
    lock word, backing off with {!Machine.spin_pause} after each failed
    attempt, where only the winning attempt resumes the caller's
    program.  It releases by storing the unlocked value: an
    uncontended pair retires two instructions, the CAS and the store.  When a
    {!Flightrec.Recorder} is installed, it emits a [Lock_acquire] event
    carrying the failed-attempt (spin) count and a [Lock_release] event,
    host-side at zero simulated cost; with no recorder an uncontended
    acquire/release pair allocates nothing.  [f] must not raise:
    simulated kernel code does not unwind across a critical section
    (enforced by re-raising after release). *)

val holder_oracle : Memory.t -> t -> bool
(** [holder_oracle mem t] is true when the lock word reads locked
    (host-side test oracle, uncharged). *)
