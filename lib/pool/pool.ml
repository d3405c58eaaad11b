type mode = [ `Fixed | `Adaptive ]

type adapt_event = {
  ev_seq : int;
  ev_grow : bool;
  ev_target : int;
  ev_bound : int;
}

(* Per-domain state, reached with one DLS lookup: the magazine, this
   domain's counter cell, and the contention signal latched since its
   last depot safe point ([saw_contended] is set by any depot
   acquisition that found the lock held). *)
type 'a slot = {
  mutable mag : 'a Magazine.t;
  st : Pstats.cell;
  mutable saw_contended : bool;
}

type 'a t = {
  ctor : unit -> 'a;
  reset : ('a -> unit) option;
  base_target : int;
  max_target : int;
  base_bound : int;
  max_bound : int;
  grow_step : int;
  bound_step : int;
  mode : mode;
  desired_target : int Atomic.t;
  desired_bound : int Atomic.t;
  depot : 'a Depot.t;
  stats : Pstats.t;
  key : 'a slot Domain.DLS.key;
  flushes : int Atomic.t;
  oversupply_run : int Atomic.t;  (* consecutive oversupply signals *)
  last_create_seq : int Atomic.t;
      (* flush sequence number current when any domain last paid
         constructor cost; a drop landing within [churn_window]
         flushes of it is churn, not oversupply *)
  events : adapt_event list Atomic.t;  (* newest first, capped *)
}

let max_trajectory = 512
let churn_window = 128

(* Hysteresis, after Pressure's clean-streak rule: one churn signal is
   enough to grow, but shrinking needs this many consecutive
   oversupply signals — otherwise a workload that alternates overflow
   and miss phases (scheduler slices) rides a grow/shrink limit cycle
   instead of settling at the larger geometry it needs. *)
let shrink_streak = 32

let create ~ctor ?reset ?(target = 16) ?(depot_batches = 32) ?(mode = `Fixed)
    ?max_target ?max_depot_batches ?grow_step () =
  if target < 1 then invalid_arg "Pool.create: target < 1";
  if depot_batches < 0 then invalid_arg "Pool.create: depot_batches < 0";
  let max_target = Option.value max_target ~default:(8 * target) in
  let max_bound =
    Option.value max_depot_batches ~default:(max 1 (8 * depot_batches))
  in
  if max_target < target then invalid_arg "Pool.create: max_target < target";
  if max_bound < depot_batches then
    invalid_arg "Pool.create: max_depot_batches < depot_batches";
  let grow_step = Option.value grow_step ~default:target in
  if grow_step < 1 then invalid_arg "Pool.create: grow_step < 1";
  let desired_target = Atomic.make target and stats = Pstats.create () in
  {
    ctor;
    reset;
    base_target = target;
    max_target;
    base_bound = depot_batches;
    max_bound;
    grow_step;
    bound_step = max 1 depot_batches;
    mode;
    desired_target;
    desired_bound = Atomic.make depot_batches;
    depot = Depot.create ~target ~max_batches:depot_batches;
    stats;
    key =
      Domain.DLS.new_key (fun () ->
          {
            mag = Magazine.create ~target:(Atomic.get desired_target);
            st = Pstats.register stats;
            saw_contended = false;
          });
    flushes = Atomic.make 0;
    oversupply_run = Atomic.make 0;
    last_create_seq = Atomic.make (-(churn_window + 1));
    events = Atomic.make [];
  }

let slot t = Domain.DLS.get t.key

let note_acquire sl ~contended =
  sl.st.depot_acquires <- sl.st.depot_acquires + 1;
  if contended then begin
    sl.st.depot_contended <- sl.st.depot_contended + 1;
    sl.saw_contended <- true
  end

(* Hand a full batch to the depot; [true] when it was dropped. *)
let deposit t sl batch =
  sl.st.depot_puts <- sl.st.depot_puts + 1;
  let r, contended = Depot.put_observed t.depot batch in
  note_acquire sl ~contended;
  let dropped = r = `Dropped in
  if dropped then sl.st.drops <- sl.st.drops + 1;
  dropped

let deposit_partial t sl items =
  sl.st.depot_puts <- sl.st.depot_puts + 1;
  note_acquire sl ~contended:(Depot.put_partial_observed t.depot items)

(* --- adaptation: the Kma.Pressure discipline transplanted -----------

   Like Pressure, the knobs move only at slow-path safe points (a
   magazine flush hitting the depot), never on the magazine hit path,
   with floors and ceilings pinning the geometry to
   [base <= current <= 8 * base] by default.  Growth is additive
   ([grow_step] per signal), shrink is multiplicative (halving the
   excess over the base).

   The raw signals entering [adapt]:
   - [contended]: depot churn.  The flushing put found the lock held,
     or any depot acquisition by this domain since its last safe point
     did, or the flush was dropped within [churn_window] flushes of a
     constructor miss somewhere in the pool — overflow and miss at
     once, the drain/refill oscillation shape (on a single-core host,
     domains alternate in scheduler slices, so the domain paying the
     misses is never the one at a flush safe point: the miss evidence
     must be pool-global).  Bigger magazines visit the depot less and
     a bigger depot absorbs more phase skew, so grow both.
   - [dropped]: pure oversupply.  The flush was dropped with no miss
     anywhere near: the pool holds more than the workload circulates,
     so decay back toward the configured base and let the GC have the
     excess. *)

let record_event t ev =
  let rec push () =
    let old = Atomic.get t.events in
    if List.length old >= max_trajectory then ()
    else if not (Atomic.compare_and_set t.events old (ev :: old)) then push ()
  in
  push ()

let rec step_toward a ~limit ~step =
  let cur = Atomic.get a in
  let nxt = min limit (cur + step) in
  if nxt = cur then None
  else if Atomic.compare_and_set a cur nxt then Some nxt
  else step_toward a ~limit ~step

let rec halve_toward a ~base =
  let cur = Atomic.get a in
  let nxt = base + ((cur - base) / 2) in
  if nxt = cur then None
  else if Atomic.compare_and_set a cur nxt then Some nxt
  else halve_toward a ~base

let adapt t sl ~seq ~contended ~dropped =
  let changed, grow =
    if contended then
      let nt = step_toward t.desired_target ~limit:t.max_target ~step:t.grow_step in
      let nb = step_toward t.desired_bound ~limit:t.max_bound ~step:t.bound_step in
      ((nt, nb) <> (None, None), true)
    else if dropped then
      let nt = halve_toward t.desired_target ~base:t.base_target in
      let nb = halve_toward t.desired_bound ~base:t.base_bound in
      ((nt, nb) <> (None, None), false)
    else (false, false)
  in
  if changed then begin
    Depot.set_geometry t.depot
      ~target:(Atomic.get t.desired_target)
      ~max_batches:(Atomic.get t.desired_bound);
    if grow then sl.st.grows <- sl.st.grows + 1
    else sl.st.shrinks <- sl.st.shrinks + 1;
    record_event t
      {
        ev_seq = seq;
        ev_grow = grow;
        ev_target = Atomic.get t.desired_target;
        ev_bound = Atomic.get t.desired_bound;
      }
  end

(* Re-cut the calling domain's magazine to the current desired target.
   The magazine geometry is immutable (its invariants depend on it), so
   adaptation swaps in a fresh magazine and re-feeds the old contents;
   any flush this produces goes to the depot as usual. *)
let sync_magazine t sl =
  let want = Atomic.get t.desired_target in
  if Magazine.target sl.mag <> want then begin
    let held = Magazine.drain sl.mag in
    sl.mag <- Magazine.create ~target:want;
    List.iter
      (fun x ->
        match Magazine.put sl.mag x with
        | `Ok -> ()
        | `Flush batch -> ignore (deposit t sl batch))
      held
  end

(* The magazine is empty: the depot-get safe point.  A domain that only
   allocates never flushes, so it adopts the adapted target here. *)
let alloc_miss t sl =
  sync_magazine t sl;
  sl.st.depot_gets <- sl.st.depot_gets + 1;
  let batch, contended = Depot.get_observed t.depot in
  note_acquire sl ~contended;
  match batch with
  | Some batch ->
      (* A batch cut before a shrink overfills the magazine: the excess
         goes back as loose items. *)
      (match Magazine.install sl.mag batch with
      | [] -> ()
      | excess -> deposit_partial t sl excess);
      Magazine.get sl.mag
  | None ->
      sl.st.creates <- sl.st.creates + 1;
      if t.mode = `Adaptive then
        Atomic.set t.last_create_seq (Atomic.get t.flushes);
      t.ctor ()

let alloc t =
  let sl = slot t in
  sl.st.allocs <- sl.st.allocs + 1;
  match Magazine.get sl.mag with
  | x -> x
  | exception Magazine.Empty -> alloc_miss t sl

(* [main] and [aux] were both full: the flush safe point. *)
let flush t sl batch =
  let seq = Atomic.fetch_and_add t.flushes 1 in
  let dropped = deposit t sl batch in
  if t.mode = `Adaptive then begin
    let churn =
      sl.saw_contended
      || (dropped && seq - Atomic.get t.last_create_seq <= churn_window)
    in
    sl.saw_contended <- false;
    if churn then begin
      Atomic.set t.oversupply_run 0;
      adapt t sl ~seq ~contended:true ~dropped:false
    end
    else if dropped then begin
      if Atomic.fetch_and_add t.oversupply_run 1 + 1 >= shrink_streak then begin
        Atomic.set t.oversupply_run 0;
        adapt t sl ~seq ~contended:false ~dropped:true
      end
    end;
    sync_magazine t sl
  end

let release t x =
  (match t.reset with Some f -> f x | None -> ());
  let sl = slot t in
  sl.st.frees <- sl.st.frees + 1;
  match Magazine.put sl.mag x with
  | `Ok -> ()
  | `Flush batch -> flush t sl batch

let adapt_now t ~contended ~dropped =
  if t.mode = `Adaptive then begin
    let sl = slot t in
    adapt t sl ~seq:(Atomic.get t.flushes) ~contended ~dropped;
    sync_magazine t sl
  end

let with_obj t f =
  let x = alloc t in
  match f x with
  | v ->
      release t x;
      v
  | exception e ->
      release t x;
      raise e

let flush_local t =
  let sl = slot t in
  match Magazine.drain sl.mag with
  | [] -> ()
  | items -> deposit_partial t sl items

let refill t ~batches =
  if batches < 0 then invalid_arg "Pool.refill: batches < 0";
  let sl = slot t in
  let kept = ref 0 in
  (try
     for _ = 1 to batches do
       (* Stop constructing as soon as the depot reports full: one
          speculative batch at most goes to the GC. *)
       let tgt = Atomic.get t.desired_target in
       let batch = List.init tgt (fun _ -> t.ctor ()) in
       if deposit t sl batch then raise Exit;
       incr kept;
       sl.st.prefills <- sl.st.prefills + 1
     done
   with Exit -> ());
  !kept

let stats t = t.stats
let mode t = t.mode
let target t = t.base_target
let current_target t = Atomic.get t.desired_target
let depot_bound t = Atomic.get t.desired_bound
let depot_batches t = Depot.batches t.depot
let trajectory t = List.rev (Atomic.get t.events)
