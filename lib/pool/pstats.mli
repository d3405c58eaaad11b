(** Counters for the native pool, after the paper's measurement
    discipline: statistics live with the layer that produces them, per
    CPU, and are summed only when somebody asks.  Each domain bumps
    plain [int] fields of its own {!cell}, with no atomic and no shared
    cache line on the hot path; the read accessors sum over every
    registered cell and may be called from any domain while writers
    race.

    Invariants:
    - single writer: only the domain that registered a cell writes it;
    - readers may race with the writers: an OCaml 5 [int] read does not
      tear, and each counter still reads monotone, since every field
      only grows;
    - counts are exact once the writers' domains have been
      [Domain.join]ed;
    - a snapshot taken mid-run is internally skewed by whatever landed
      between field reads, the same caveat the paper accepts for its
      own per-CPU counters. *)

type t

(** One domain's counters.  [creates] counts constructor calls
    (allocations no layer could satisfy); [drops] batches released to
    the GC on depot overflow; [depot_acquires] data-path depot-lock
    acquisitions, of which [depot_contended] found the lock held;
    [grows] adaptive level steps. *)
type cell = {
  mutable allocs : int;
  mutable frees : int;
  mutable creates : int;
  mutable depot_gets : int;
  mutable depot_puts : int;
  mutable drops : int;
  mutable depot_acquires : int;
  mutable depot_contended : int;
  mutable grows : int;
}

val create : unit -> t

val register : t -> cell
(** [register t] adds a zeroed cell to [t] and returns it; the calling
    domain becomes its only writer.  Register once per domain, from a
    [Domain.DLS] initialiser. *)

val allocs : t -> int
val creates : t -> int
val depot_gets : t -> int
val depot_puts : t -> int
val drops : t -> int

type snapshot = {
  s_allocs : int;
  s_frees : int;
  s_creates : int;
  s_depot_gets : int;
  s_depot_puts : int;
  s_drops : int;
  s_depot_acquires : int;
  s_depot_contended : int;
  s_grows : int;
  s_shrinks : int;  (** always 0: the adaptive level never shrinks *)
}

val read : t -> snapshot
(** One aggregated pass over every counter. *)

val magazine_hit_rate : t -> float
(** Fraction of allocations served without touching the depot. *)

val contention_rate : t -> float
(** [depot_contended / depot_acquires]; [nan] before any acquisition. *)
