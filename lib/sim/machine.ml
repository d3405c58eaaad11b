exception Not_in_simulation
exception Deadlock of string
exception Watchdog of int

(* What a read-modify-write [Rmw (f, a, x, y)] stores in word [a]: for
   [Cas], [y] when the word equals [x]; otherwise the old value combined
   with [x]. *)
type rmw = Cas | Add | Or | And

type op =
  | Read of Memory.addr
  | Write of Memory.addr * int
  | Rmw of rmw * Memory.addr * int * int
  | Work of int
  | Spin
  | Cpu_id
  | Now
  | Irq of bool
  | Sync
  | Spin_cas of Memory.addr * int * int
      (* [Spin_cas (a, x, y)]: CAS [a] from [x] to [y] until it wins,
         each failure followed by a pause; see [spin_cas] *)

(* [Park] is a separate effect rather than an [op], so the scheduler's
   per-operation paths (the [Op] match in the handler, the pop/re-key
   after each event) carry no parking test: only a parking CPU pays
   for parking. *)
type _ Effect.t += Op : op -> int Effect.t | Park : int Effect.t

(* A CPU's scheduling state IS the reified step: [Done] means idle,
   [Next (o, k)] means operation [o] is pending with continuation [k].
   Storing the step directly (rather than re-wrapping it in a separate
   state constructor) saves one allocation per simulated operation on
   the scheduler's hot path. *)
type step = Done | Next of op * (int, step) Effect.Deep.continuation

type cpu = {
  id : int;
  mutable time : int;
  mutable nretired : int;
  mutable irq_off : bool;
  mutable nspins : int;
  mutable spin_mix : int; (* last spin-jitter hash value *)
  mutable spin_r : int; (* spin_mix mod the jitter modulus *)
  mutable state : step;
  mutable parked : step;
      (* [Next (Spin, k)] while the CPU is parked: off the heap, with
         the poll a [wake] reinstates; [Done] otherwise. *)
  mutable sync_key : int;
      (* heap key of a pending [Sync] (see {!sync}); any other pending
         operation is keyed at the CPU's clock *)
  mutable spin_fails : int;
      (* failed attempts the scheduler has run for a pending [Spin_cas] *)
}

type t = {
  cfg : Config.t;
  geometry : Geometry.t; (* [cfg.geometry]: the costs every access reads *)
  memory : Memory.t;
  cache : Cache.t;
  cpus : cpu array;
  node_of : int array; (* cpu -> NUMA node (all 0 on the flat machine) *)
  bus_free : int array;
      (* Virtual instant each node's bus becomes free.  The flat
         machine has one entry — the paper's single shared bus; a NUMA
         machine arbitrates per node, which is exactly why it scales
         past the bus-saturation ceiling.  Off-chip transfers queue
         behind the requester's node bus; because operations execute
         in global time order, grants are naturally first-come
         first-served. *)
  heap : int array;
      (* The scheduler's binary min-heap of pending CPUs (see [run]),
         in [heap.(0 .. heap_n - 1)].  A machine field rather than a
         local of [run] so that [wake] can put a parked CPU back. *)
  mutable heap_n : int;
  mutable resumes : int;
      (* programs resumed by the scheduler, over the machine's life *)
}

(* Scheduler heap keys pack (time, id) into one int with [id_bits] bits
   of CPU id below the time; the static guard ties the packing to the
   Config cap so widening one without the other fails at module init
   instead of corrupting the schedule. *)
let id_bits = 10
let id_mask = (1 lsl id_bits) - 1
let () = assert (Config.max_cpus <= 1 lsl id_bits)

(* Costs no experiment varies, in cycles. *)
let irq_cost = 4 (* disabling or enabling interrupts *)
let spin_cost = 4 (* one spin-wait pause, before jitter *)

(* The shared system bus is one queued resource per node: every
   off-chip transfer (miss, cache-to-cache, upgrade, uncached access)
   queues for it, so misses from many CPUs serialise — the global
   saturation that caps lock-based allocators on real shared-bus
   machines.  A transfer holds the bus for [stall / 4] cycles (at least
   1): a split-transaction bus is busy for the request/arbitration
   phases, not the whole memory latency.  The division is a shift. *)
let bus_occupancy_shift = 2

(* The spin-jitter hash (see [exec_spin]): multiplicative stride
   [spin_k1], modulus [spin_d], the stride mod [spin_d], and 2^62 mod
   [spin_d] for hash wraparound. *)
let spin_k1 = 2654435761
let spin_d = (3 * spin_cost) + 1
let spin_k1d = spin_k1 mod spin_d
let spin_wd = ((max_int mod spin_d) + 1) mod spin_d

let create (cfg : Config.t) =
  Config.validate cfg;
  {
    cfg;
    geometry = cfg.geometry;
    memory = Memory.create ~words:cfg.memory_words;
    cache = Cache.create cfg;
    cpus =
      Array.init cfg.ncpus (fun id ->
          let mix0 = (id * 40503) land max_int in
          {
            id;
            time = 0;
            nretired = 0;
            irq_off = false;
            nspins = 0;
            spin_mix = mix0;
            spin_r = mix0 mod spin_d;
            state = Done;
            parked = Done;
            sync_key = 0;
            spin_fails = 0;
          });
    node_of = Array.init cfg.ncpus (fun cpu -> Config.node_of cfg cpu);
    bus_free = Array.make cfg.geometry.nodes 0;
    heap = Array.make cfg.ncpus 0;
    heap_n = 0;
    resumes = 0;
  }

let config t = t.cfg
let memory t = t.memory
let cache t = t.cache
let cpu_time t ~cpu = t.cpus.(cpu).time
let retired t ~cpu = t.cpus.(cpu).nretired

let elapsed t =
  Array.fold_left (fun acc c -> Int.max acc c.time) 0 t.cpus

let reset_clocks t =
  Array.fill t.bus_free 0 (Array.length t.bus_free) 0;
  Array.iter
    (fun c ->
      c.time <- 0;
      c.nretired <- 0)
    t.cpus

let irq_disabled_oracle t ~cpu = t.cpus.(cpu).irq_off
let resumes_oracle t = t.resumes

(* Per-domain execution context.  [cur] is the CPU whose program (host
   code between two operations) is executing right now, if any —
   maintained by the scheduler around every continuation resume so that
   host-side observers (the flight recorder above all) can learn the
   current CPU and its clock WITHOUT performing an operation.  An extra
   operation is an extra yield point: it splits the host code around it
   into separately scheduled slices, letting same-instant host code on
   other CPUs interleave where it otherwise could not.

   The remaining fields drive the same-CPU fast path.  [limit_time] /
   [limit_id] are the clock and id of the earliest OTHER pending CPU
   when [cur] was resumed: as long as [cur]'s clock stays below that
   bound (ties broken by id, mirroring the scheduler's pick), the
   scheduler would pick [cur] again immediately, so the operation can
   execute inline in host code — no effect performed, no continuation
   captured, no scheduler round trip.  Other CPUs' clocks and pending
   states are frozen while [cur]'s host code runs, so the bound
   computed at resume time stays exact for the whole slice.  This is
   why a batch of same-CPU operations (the exclusive-line hits of a
   per-CPU freelist above all) costs one scheduler event instead of
   one per operation, and why the batching is bit-identical by
   construction: an operation runs inline ONLY when the scheduler
   would have executed exactly that operation next anyway.

   The second leg runs CPU-private operations ahead of the schedule
   even when [cur] is NOT the next pick (see [may_run_ahead]); [ahead]
   then holds the heap key at which the latest such operation started,
   so that [sync] can put the following host code back where the
   scheduler would have run it.

   The slot is domain-local: lib/parallel shards experiment sweeps
   across domains, each driving its own machine, so a shared slot
   would let one domain's scheduler clobber another's context
   mid-resume. *)
type ctx = {
  mutable mach : t option;
  mutable cur : int;
      (* index of the executing CPU in [mach]'s cpu array, -1 when no
         program is running.  An index rather than a [cpu option]: the
         slot is written twice per continuation resume on the hottest
         path in the simulator, and an immediate store neither
         allocates an option nor calls the GC write barrier. *)
  mutable limit_time : int; (* min_int disables the fast path *)
  mutable limit_id : int;
  mutable max_cycles : int; (* 0 = no watchdog *)
  mutable ahead : int;
      (* start key of the latest operation [cur] ran ahead of the
         schedule since it was last resumed by the scheduler (or
         launched), -1 when none *)
}

(* A never-inlining context: [fast_ctx] returns it when no program is
   executing or the fast path is off, so the fronts test one pointer
   instead of re-checking both conditions in every branch. *)
let null_ctx =
  { mach = None; cur = -1; limit_time = min_int; limit_id = max_int;
    max_cycles = 0; ahead = -1 }

let executing_key : ctx Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        mach = None;
        cur = -1;
        limit_time = min_int;
        limit_id = max_int;
        max_cycles = 0;
        ahead = -1;
      })

(* Test-only kill switch (see {!set_fast_path_oracle}): the equivalence
   proofs in test/sim and test/experiments run every workload twice,
   fast path on and off, and require bit-identical cycles and state.
   Written only from tests before any domain is spawned. *)
let fast_path_on = ref true
let set_fast_path_oracle b = fast_path_on := b
let fast_path_enabled_oracle () = !fast_path_on

(* Typed operation fronts.  All operations funnel through a single
   int-valued effect so the scheduler needs no existential plumbing. *)
let perform_op o =
  try Effect.perform (Op o)
  with Effect.Unhandled _ -> raise Not_in_simulation

(* A cached memory access on behalf of [c]: cache stall plus bus
   arbitration.  Top-level (not a closure inside [exec]) so the hot
   path allocates nothing. *)
let mem_access t (c : cpu) a kind =
  let stall = Cache.access t.cache ~cpu:c.id a kind in
  let stall =
    if stall > 0 then begin
      (* The transfer waits for the requester's node bus, then holds it
         for its request/arbitration phases while the CPU stalls for
         the full transfer latency.  (One bus total on the flat
         machine.) *)
      let node = Array.unsafe_get t.node_of c.id in
      let free = Array.unsafe_get t.bus_free node in
      let wait = Int.max 0 (free - c.time) in
      let occupancy = Int.max 1 (stall lsr bus_occupancy_shift) in
      Array.unsafe_set t.bus_free node (c.time + wait + occupancy);
      wait + stall
    end
    else stall
  in
  t.geometry.insn_cost + stall

(* Per-operation executors.  Each charges cycle cost and retired
   instructions directly onto [c] and returns the operation's result
   value.  Both the scheduler (via [exec]) and the specialised
   fast-path fronts below call these SAME functions, so the two paths
   cannot charge differently. *)
let exec_read t (c : cpu) a =
  c.time <- c.time + mem_access t c a Cache.Load;
  c.nretired <- c.nretired + 1;
  Memory.get t.memory a

let exec_write t (c : cpu) a v =
  c.time <- c.time + mem_access t c a Cache.Store;
  c.nretired <- c.nretired + 1;
  Memory.set t.memory a v;
  0

(* Every read-modify-write charges the same, one Rmw cache access plus
   [rmw_cost], retiring one instruction, whether or not a CAS wins; only
   the stored value differs.  Returns the old value: a CAS succeeded iff
   it equals [x]. *)
let exec_rmw t (c : cpu) f a x y =
  c.time <- c.time + mem_access t c a Cache.Rmw + t.geometry.rmw_cost;
  c.nretired <- c.nretired + 1;
  let old = Memory.get t.memory a in
  (match f with
  | Cas -> if old = x then Memory.set t.memory a y
  | Add -> Memory.set t.memory a (old + x)
  | Or -> Memory.set t.memory a (old lor x)
  | And -> Memory.set t.memory a (old land x));
  old

let exec_work t (c : cpu) n =
  c.time <- c.time + (n * t.geometry.insn_cost);
  c.nretired <- c.nretired + n;
  0

let exec_spin (c : cpu) =
  (* Deterministic pseudo-random jitter.  Without it, a spinning CPU
     can phase-lock with another CPU's periodic lock/unlock pattern
     and lose the race forever — an artifact of the discrete-event
     model that real bus arbitration and timing noise preclude.

     The jitter is [mix mod d] where [mix] is a multiplicative hash of
     (nspins, id) and [d = 3 * spin_cost + 1] — but computed WITHOUT
     the division, which is the single most expensive instruction in
     the (very hot) spin path.  Successive [mix] values differ by the
     constant stride [spin_k1] mod 2^62, so the remainder advances by
     [spin_k1 mod d], minus [2^62 mod d] whenever the hash wraps
     (detected as [mix] decreasing), then folded back into [0, d) with
     two compares.  Bit-identical to the division by construction, and
     pinned by the equivalence suite. *)
  c.nspins <- c.nspins + 1;
  let mix = ((c.nspins * spin_k1) + (c.id * 40503)) land max_int in
  let r = c.spin_r + spin_k1d in
  let r = if mix < c.spin_mix then r - spin_wd else r in
  let r = if r < 0 then r + spin_d else r in
  let r = if r >= spin_d then r - spin_d else r in
  c.spin_mix <- mix;
  c.spin_r <- r;
  c.time <- c.time + spin_cost + r;
  c.nretired <- c.nretired + 1;
  0

let exec_irq (c : cpu) on =
  c.irq_off <- on;
  c.time <- c.time + irq_cost;
  c.nretired <- c.nretired + 1;
  0

(* The failed attempts of a [spin_cas] that has just won, cleared for
   the next one. *)
let take_fails (c : cpu) =
  let n = c.spin_fails in
  c.spin_fails <- 0;
  n

(* Scheduler-side dispatch over a reified operation.  A [Spin_cas] gets
   here once an attempt has won (see [spin_won]). *)
let exec t (c : cpu) (o : op) : int =
  match o with
  | Read a -> exec_read t c a
  | Write (a, v) -> exec_write t c a v
  | Rmw (f, a, x, y) -> exec_rmw t c f a x y
  | Work n -> exec_work t c n
  | Spin -> exec_spin c
  | Cpu_id -> c.id
  | Now -> c.time
  | Irq on -> exec_irq c on
  | Sync -> 0
  | Spin_cas _ -> take_fails c

(* Operation fronts.  Each is specialised rather than routed through
   one generic [dispatch o]: on the fast path (executing CPU would be
   the scheduler's next pick — its clock below every other pending
   CPU's, ties broken by id exactly like the pick; watchdog clear) the
   operation executes inline via the shared executor WITHOUT
   constructing an [op] value, performing an effect, or capturing a
   continuation.  Only the fallback reifies the operation and yields
   to the scheduler.  The watchdog guard matters: when the deadline
   has passed, falling back to the effect lets [Watchdog] propagate
   from the scheduler loop exactly as it always did, without unwinding
   the program's own stack.

   CPU-private operations use a weaker guard ([may_run_ahead]): a
   spin, a [work] charge, a [cpu_id], an interrupt flip, and a hit on
   a line declared private to this CPU (or read-only, for loads) touch
   only this CPU's clock, retired count, interrupt flag, cache
   statistics and a line nobody else accesses, so they commute with
   every other CPU's operations and may run inline even when this CPU
   is not the next pick, provided no watchdog is armed (it fires at a
   pick, so running ahead could change which CPU trips it, and when).
   Such an operation records its start key in [ctx.ahead] when it is
   genuinely ahead; [sync] uses it. *)

(* Scheduler heap keys (see [run]) pack a CPU's (time, id) into one
   int: integer comparison of packed keys IS the scheduler's
   lexicographic pick order. *)
let[@inline] key_of (c : cpu) = (c.time lsl id_bits) lor c.id

(* [Domain.DLS.get] is an out-of-line call whose cost is visible on
   every operation, so the fast path reads the domain-local slot
   directly through the [%dls_get] primitive the stdlib itself uses.
   Soundness: [run] initialises the key through the official API
   before any operation can execute on this domain, so by the time a
   front looks, the slot holds a real [ctx] — and if it does not (no
   [run] on this domain yet: slot missing, or holding the stdlib's
   uninitialised sentinel [ref 0]), the first field reads as the
   immediate 0, i.e. [mach = None], and every front falls through to
   [perform_op] exactly like the out-of-simulation case. *)
external get_dls_state : unit -> Obj.t array = "%dls_get"

let executing_key_idx : int = fst (Obj.magic executing_key : int * unit)

let[@inline] fast_ctx () =
  let st = get_dls_state () in
  if executing_key_idx < Array.length st then
    (Obj.magic (Array.unsafe_get st executing_key_idx) : ctx)
  else null_ctx

(* Host-side observers, on the same direct slot read as the fronts.
   [mach] is matched BEFORE [cur] is read: the uninitialised-sentinel
   block is a single word, so its first field is a safe read (and is
   the immediate 0 = [None]) while its second is not. *)
let running () =
  let ctx = fast_ctx () in
  match ctx.mach with
  | Some t when ctx.cur >= 0 ->
      let c = t.cpus.(ctx.cur) in
      Some (c.id, c.time)
  | _ -> None

let running_irq_off () =
  let ctx = fast_ctx () in
  match ctx.mach with
  | Some t when ctx.cur >= 0 -> t.cpus.(ctx.cur).irq_off
  | _ -> false

let peek a =
  let ctx = fast_ctx () in
  match ctx.mach with
  | Some t when ctx.cur >= 0 -> Memory.get t.memory a
  | _ -> raise Not_in_simulation

let[@inline] below_limit ctx (c : cpu) =
  c.time < ctx.limit_time || (c.time = ctx.limit_time && c.id < ctx.limit_id)

let[@inline] may_inline ctx =
  ctx.cur >= 0 && !fast_path_on
  &&
  match ctx.mach with
  | Some t ->
      let c = Array.unsafe_get t.cpus ctx.cur in
      below_limit ctx c && (ctx.max_cycles = 0 || c.time <= ctx.max_cycles)
  | None -> false

let[@inline] may_run_ahead ctx =
  ctx.cur >= 0 && !fast_path_on && ctx.max_cycles = 0

(* The run-ahead CPU for a private operation about to start: records
   the operation's start key unless the scheduler would have picked
   this CPU next anyway (then the host code after it already runs at
   its scheduled position). *)
let[@inline] ahead_cpu t ctx =
  let c = Array.unsafe_get t.cpus ctx.cur in
  if not (below_limit ctx c) then ctx.ahead <- key_of c;
  c

(* A memory access that misses [may_inline] may still run ahead when
   it is a hit on a line this CPU owns (or, for a load, a read-only
   line); such a CPU is not the next pick, so its key is recorded. *)
let[@inline] owned_hit t ctx a kind =
  may_run_ahead ctx
  && Cache.private_hit t.cache ~cpu:ctx.cur a kind
  &&
  (ctx.ahead <- key_of (Array.unsafe_get t.cpus ctx.cur);
   true)

let read a =
  let ctx = fast_ctx () in
  match ctx.mach with
  | Some t when may_inline ctx ->
      exec_read t (Array.unsafe_get t.cpus ctx.cur) a
  | Some t when owned_hit t ctx a Cache.Load ->
      exec_read t (Array.unsafe_get t.cpus ctx.cur) a
  | _ -> perform_op (Read a)

let write a v =
  let ctx = fast_ctx () in
  match ctx.mach with
  | Some t when may_inline ctx ->
      ignore (exec_write t (Array.unsafe_get t.cpus ctx.cur) a v)
  | Some t when owned_hit t ctx a Cache.Store ->
      ignore (exec_write t (Array.unsafe_get t.cpus ctx.cur) a v)
  | _ -> ignore (perform_op (Write (a, v)))

let rmw f a x y =
  let ctx = fast_ctx () in
  match ctx.mach with
  | Some t when may_inline ctx ->
      exec_rmw t (Array.unsafe_get t.cpus ctx.cur) f a x y
  | _ -> perform_op (Rmw (f, a, x, y))

let cas_val a ~expected ~desired = rmw Cas a expected desired
let fetch_add a n = rmw Add a n 0
let fetch_or a n = rmw Or a n 0
let fetch_and a n = rmw And a n 0

let work n =
  if n > 0 then begin
    let ctx = fast_ctx () in
    match ctx.mach with
    | Some t when may_run_ahead ctx -> ignore (exec_work t (ahead_cpu t ctx) n)
    | _ -> ignore (perform_op (Work n))
  end

let spin_pause () =
  let ctx = fast_ctx () in
  match ctx.mach with
  | Some t when may_run_ahead ctx -> ignore (exec_spin (ahead_cpu t ctx))
  | _ -> ignore (perform_op Spin)

let cpu_id () =
  let ctx = fast_ctx () in
  match ctx.mach with
  | Some t when may_run_ahead ctx -> (ahead_cpu t ctx).id
  | _ -> perform_op Cpu_id

let irq_disable () =
  let ctx = fast_ctx () in
  match ctx.mach with
  | Some t when may_run_ahead ctx -> ignore (exec_irq (ahead_cpu t ctx) true)
  | _ -> ignore (perform_op (Irq true))

let irq_enable () =
  let ctx = fast_ctx () in
  match ctx.mach with
  | Some t when may_run_ahead ctx ->
      ignore (exec_irq (ahead_cpu t ctx) false)
  | _ -> ignore (perform_op (Irq false))

let now () =
  let ctx = fast_ctx () in
  match ctx.mach with
  | Some t when may_inline ctx ->
      (Array.unsafe_get t.cpus ctx.cur).time
  | _ -> perform_op Now

(* --- spinning acquisition ----------------------------------------------

   [spin_cas] is the loop [spin_ops] below, "CAS; on failure
   [spin_pause] and retry", with the program resumed only by the
   winning attempt.  Between two attempts the loop's host code is pure
   loop control, so nothing but the attempts and pauses needs running:
   [spin_won] runs them wherever the CPU is the next pick — in the
   front while its program runs, and at each of its picks once the
   front has performed one [Spin_cas].  Every attempt goes through
   [exec_rmw] and every pause through [exec_spin], in the same order at
   the same clocks as [spin_ops] with the fast path on (each of its
   attempts inline or at the CPU's pick, each pause run ahead), so the
   two are bit-identical; only the program resumes in between go.  A
   pause's run-ahead mark needs no upkeep: the program resumes, which
   clears it, before any host code could read it.

   Top-level loops rather than closures, so an uncontended acquire
   allocates nothing. *)

(* The oracle: the plain loop, which [spin_cas] is with the fast path
   off (each attempt and pause one scheduled operation) or a watchdog
   armed (which fires at a pick, so the pauses stay scheduled and an
   attempt past its deadline reaches one). *)
let rec spin_ops a x y fails =
  if cas_val a ~expected:x ~desired:y = x then fails
  else begin
    spin_pause ();
    spin_ops a x y (fails + 1)
  end

(* From a position where [c] is the next pick: an attempt, then after
   each failure its pause and, while [c] stays inside the horizon [ctx]
   holds, the next attempt.  True once one wins, its failures counted
   in [c.spin_fails]; false once [c] has left the horizon, with its
   next attempt due at its next pick. *)
let rec spin_won t ctx (c : cpu) a x y =
  exec_rmw t c Cas a x y = x
  || begin
       c.spin_fails <- c.spin_fails + 1;
       ignore (exec_spin c);
       below_limit ctx c && spin_won t ctx c a x y
     end

let spin_cas a ~expected ~desired =
  let ctx = fast_ctx () in
  match ctx.mach with
  | Some t when may_run_ahead ctx ->
      let c = Array.unsafe_get t.cpus ctx.cur in
      if below_limit ctx c && spin_won t ctx c a expected desired then
        take_fails c
      else perform_op (Spin_cas (a, expected, desired))
  | _ -> spin_ops a expected desired 0

(* Put the host code that follows back where the scheduler would have
   run it: right after the latest operation that ran ahead, i.e. at
   that operation's start key.  Its clock is already past that key, so
   the CPU re-enters the heap under [sync_key] instead of its clock
   (see [pending_key]); the [Sync] it waits on charges nothing. *)
let sync () =
  let ctx = fast_ctx () in
  match ctx.mach with
  | Some t when ctx.ahead >= 0 ->
      (Array.unsafe_get t.cpus ctx.cur).sync_key <- ctx.ahead;
      ignore (perform_op Sync)
  | _ -> ()

(* --- scheduler heap --------------------------------------------------

   Pending CPUs live in [t.heap] as packed keys [(time lsl id_bits) lor
   id]: integer comparison of packed keys IS the scheduler's (time, id)
   lexicographic order (ncpus <= Config.max_cpus <= 2^id_bits is a
   Config invariant, statically asserted above), so sifts compare
   registers instead of chasing two pointers per comparison, and the
   int array needs no GC write barrier.  Virtual clocks would need to
   pass 2^52 cycles to overflow the packing; the longest figure-scale
   runs sit around 2^27.  A CPU is pending under its clock's key,
   except after a [sync]. *)
let[@inline] pending_key (c : cpu) =
  match c.state with Next (Sync, _) -> c.sync_key | _ -> key_of c

(* Restore heap order after the root's key grew (or was replaced). *)
let heap_sift_down t =
  let heap = t.heap and hn = t.heap_n in
  let x = Array.unsafe_get heap 0 in
  let i = ref 0 in
  let break = ref false in
  while not !break do
    let l = (2 * !i) + 1 in
    if l >= hn then break := true
    else begin
      let m =
        if l + 1 < hn && Array.unsafe_get heap (l + 1) < Array.unsafe_get heap l
        then l + 1
        else l
      in
      if Array.unsafe_get heap m < x then begin
        Array.unsafe_set heap !i (Array.unsafe_get heap m);
        i := m
      end
      else break := true
    end
  done;
  Array.unsafe_set heap !i x

let heap_push t k =
  let heap = t.heap in
  let i = ref t.heap_n in
  t.heap_n <- t.heap_n + 1;
  while
    !i > 0
    &&
    let p = (!i - 1) / 2 in
    k < heap.(p)
  do
    let p = (!i - 1) / 2 in
    heap.(!i) <- heap.(p);
    i := p
  done;
  heap.(!i) <- k

let heap_pop_root t =
  t.heap_n <- t.heap_n - 1;
  if t.heap_n > 0 then begin
    Array.unsafe_set t.heap 0 (Array.unsafe_get t.heap t.heap_n);
    heap_sift_down t
  end

(* --- host-signalled waits --------------------------------------------

   A parked CPU stands for a CPU polling host state with scheduled
   spins, one every [exec_spin] charge, at positions (clock, id) that
   depend only on its own private spin state.  Such a poll changes
   nothing but that private state, and its re-check can only succeed
   once the awaited host state is published — so the poll sequence is
   fully determined by the publishing point.  [park] therefore takes
   the CPU off the heap with no poll charged (the [Park] handler in
   [reify] stashes the continuation and reports the CPU idle), and
   [wake] charges, in one host loop, every poll whose position falls
   before the waker's, then re-enters the sleeper with its next poll
   pending: the first one that would have seen the publication.

   With the fast path off, [park] is one scheduled poll: the oracle the
   equivalence tests compare parking against.  With a watchdog armed it
   polls too, because the watchdog fires at the first pick past the
   deadline and a parked CPU is never picked, so parking could change
   which CPU trips it, and when. *)
let park () =
  let ctx = fast_ctx () in
  if !fast_path_on && ctx.max_cycles = 0 then
    try ignore (Effect.perform Park)
    with Effect.Unhandled _ -> raise Not_in_simulation
  else ignore (perform_op Spin)

let wake cpu =
  let ctx = fast_ctx () in
  match ctx.mach with
  | Some t when ctx.cur >= 0 -> (
      let w = t.cpus.(cpu) in
      match w.parked with
      | Done -> ()
      | Next _ as poll ->
          w.parked <- Done;
          w.state <- poll;
          (* An empty heap while a program runs means [run] is still
             launching programs: the park is pending, no poll has a
             position yet, and the push after launch schedules this
             one as the sleeper's single poll. *)
          if t.heap_n > 0 then begin
            let p = Array.unsafe_get t.cpus ctx.cur in
            while w.time < p.time || (w.time = p.time && w.id < p.id) do
              ignore (exec_spin w)
            done;
            heap_push t (key_of w);
            (* The sleeper may now be the earliest other pending CPU:
               the waker's inline horizon must stop at it. *)
            if
              w.time < ctx.limit_time
              || (w.time = ctx.limit_time && w.id < ctx.limit_id)
            then begin
              ctx.limit_time <- w.time;
              ctx.limit_id <- w.id
            end
          end)
  | _ -> raise Not_in_simulation

(* Run [c]'s program until its first operation (or completion).  The
   handler stays installed for the program's whole life: [Op] reifies
   the operation for the scheduler; [Park] stashes the continuation as
   the poll a [wake] reinstates and reports the CPU idle, which takes
   it off the heap exactly like a finished CPU. *)
let reify (c : cpu) (f : unit -> unit) : step =
  let open Effect.Deep in
  match_with f ()
    {
      retc = (fun () -> Done);
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Op o ->
              Some (fun (k : (a, step) continuation) -> Next (o, k))
          | Park ->
              Some
                (fun (k : (a, step) continuation) ->
                  c.parked <- Next (Spin, k);
                  Done)
          | _ -> None);
    }

let run ?(max_cycles = 0) t progs =
  let n = Array.length progs in
  if n < 1 || n > t.cfg.ncpus then
    invalid_arg
      (Printf.sprintf "Sim.Machine.run: %d programs for %d CPUs" n
         t.cfg.ncpus);
  let ctx = Domain.DLS.get executing_key in
  (* Save the whole context so a (pathological) nested run restores the
     outer machine's fast-path bounds on the way out. *)
  let saved_mach = ctx.mach
  and saved_limit_time = ctx.limit_time
  and saved_limit_id = ctx.limit_id
  and saved_max_cycles = ctx.max_cycles
  and saved_ahead = ctx.ahead in
  ctx.mach <- Some t;
  ctx.max_cycles <- max_cycles;
  let restore () =
    ctx.mach <- saved_mach;
    ctx.limit_time <- saved_limit_time;
    ctx.limit_id <- saved_limit_id;
    ctx.max_cycles <- saved_max_cycles;
    ctx.ahead <- saved_ahead
  in
  let cpus = t.cpus in
  match
    (* Launch every program up to its first operation.  The launch
       itself consumes no virtual time, and the fast path stays
       disabled (limit_time = min_int): later programs have not
       launched yet, so "no other pending CPU" would be a lie.  For the
       same reason every private operation a launching program runs
       counts as ahead, and a [sync] there is keyed for the heap below. *)
    ctx.limit_time <- min_int;
    ctx.limit_id <- max_int;
    for i = 0 to n - 1 do
      let c = cpus.(i) in
      let prog = progs.(i) in
      let saved = ctx.cur in
      ctx.cur <- c.id;
      ctx.ahead <- -1;
      let s =
        match reify c (fun () -> prog i) with
        | s ->
            ctx.cur <- saved;
            s
        | exception e ->
            ctx.cur <- saved;
            raise e
      in
      match s with
      | Done -> ()
      | Next _ -> c.state <- s
    done;
    (* Discrete-event loop: always advance the pending CPU with the
       smallest clock (ties by id, giving determinism).  The pending
       CPUs live in a binary min-heap ordered exactly like the old
       linear pick (time, then id), so the pick is the root, and the
       earliest instant any OTHER pending CPU could run — the
       fast-path bound published to the resumed program — is simply
       the smaller of the root's two children, for free.  Clocks only
       move forward, so re-keying the root after its operation is a
       single sift-down: O(log ncpus) per event where the scan-based
       loop paid O(ncpus) twice, which is most of the event cost on
       wide machines. *)
    let heap = t.heap in
    for i = 0 to n - 1 do
      let c = cpus.(i) in
      match c.state with Next _ -> heap_push t (pending_key c) | Done -> ()
    done;
    let rec loop () =
      if t.heap_n > 0 then begin
        let c = Array.unsafe_get cpus (Array.unsafe_get heap 0 land id_mask) in
        if max_cycles > 0 && c.time > max_cycles then raise (Watchdog c.time);
        (* min over the other pending CPUs = min of the root's children *)
        if t.heap_n > 1 then begin
          let m =
            if t.heap_n > 2 && Array.unsafe_get heap 2 < Array.unsafe_get heap 1
            then Array.unsafe_get heap 2
            else Array.unsafe_get heap 1
          in
          ctx.limit_time <- m asr id_bits;
          ctx.limit_id <- m land id_mask
        end
        else begin
          ctx.limit_time <- max_int;
          ctx.limit_id <- max_int
        end;
        (* [step] inlined: at simulator event rates even the two call
           frames (step, resume) are measurable.  A [Spin_cas] whose
           attempts at this pick all fail stays pending, re-keyed at
           its clock below without resuming its program. *)
        (match c.state with
        | Done -> ()
        | Next (o, k) ->
            if
              match o with
              | Spin_cas (a, x, y) -> spin_won t ctx c a x y
              | _ -> true
            then begin
              let result = exec t c o in
              c.state <- Done;
              t.resumes <- t.resumes + 1;
              let saved = ctx.cur in
              ctx.cur <- c.id;
              ctx.ahead <- -1;
              match Effect.Deep.continue k result with
              | s ->
                  ctx.cur <- saved;
                  c.state <- s
              | exception e ->
                  ctx.cur <- saved;
                  raise e
            end);
        (* A [wake] during the event may have pushed a sleeper, but
           always below the root: its key lies past the waker's. *)
        (match c.state with
        | Done -> heap_pop_root t
        | Next _ ->
            Array.unsafe_set heap 0 (pending_key c);
            heap_sift_down t);
        loop ()
      end
    in
    loop ();
    (* Every runnable CPU has finished; one still parked waits for a
       publication no program is left to make. *)
    let parked = ref [] in
    for i = n - 1 downto 0 do
      match cpus.(i).parked with Next _ -> parked := i :: !parked | Done -> ()
    done;
    if !parked <> [] then
      raise
        (Deadlock
           (Printf.sprintf
              "Sim.Machine.run: parked CPUs [%s] have nobody left to wake them"
              (String.concat "; " (List.map string_of_int !parked))))
  with
  | () -> restore ()
  | exception e ->
      (* Abandon every unfinished program, parked ones included, so the
         machine can run again. *)
      for i = 0 to n - 1 do
        cpus.(i).state <- Done;
        cpus.(i).parked <- Done;
        cpus.(i).spin_fails <- 0
      done;
      t.heap_n <- 0;
      restore ();
      raise e

let run_symmetric ?max_cycles t ~ncpus f =
  run ?max_cycles t (Array.init ncpus (fun _ -> f))
