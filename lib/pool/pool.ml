type mode = [ `Fixed | `Adaptive ]

(* Per-domain state, reached with one DLS lookup: the magazine, this
   domain's counter cell, and the contention signal latched since its
   last flush safe point ([saw_contended] is set by any depot
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
  base_bound : int;
  mode : mode;
  level : int Atomic.t;  (* 0 .. max_level, never lowered *)
  depot : 'a Depot.t;
  stats : Pstats.t;
  key : 'a slot Domain.DLS.key;
}

(* --- adaptation: one grow-only level ---------------------------------

   Level [k] scales the configured geometry by [1 + k]: magazine target
   [base_target * (1 + k)] and depot bound [base_bound * (1 + k)] (or
   [min 1 k] when the base bound is 0, so a pool configured to drop
   every flush gains a one-batch depot).  The level is raised one step
   per signal at a flush safe point, never on the magazine hit path,
   and is never lowered.  The signals: the flushed batch was dropped
   (the depot was too small for the phase skew), or a depot
   acquisition by this domain since its last flush found the lock held
   (the magazines visit the depot too often).  Bigger magazines visit
   the depot less and a bigger depot absorbs more skew, so both grow. *)

let max_level = 7
let scaled base k = base * (1 + k)
let target_at t k = scaled t.base_target k
let bound_at t k = if t.base_bound = 0 then min 1 k else scaled t.base_bound k

let create ~ctor ?reset ?(target = 16) ?(depot_batches = 32) ?(mode = `Fixed)
    () =
  if target < 1 then invalid_arg "Pool.create: target < 1";
  if depot_batches < 0 then invalid_arg "Pool.create: depot_batches < 0";
  let level = Atomic.make 0 and stats = Pstats.create () in
  {
    ctor;
    reset;
    base_target = target;
    base_bound = depot_batches;
    mode;
    level;
    depot = Depot.create ~target ~max_batches:depot_batches;
    stats;
    key =
      Domain.DLS.new_key (fun () ->
          {
            mag = Magazine.create ~target:(scaled target (Atomic.get level));
            st = Pstats.register stats;
            saw_contended = false;
          });
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
  let r, contended = Depot.put t.depot batch in
  note_acquire sl ~contended;
  let dropped = r = `Dropped in
  if dropped then sl.st.drops <- sl.st.drops + 1;
  dropped

let deposit_partial t sl items =
  sl.st.depot_puts <- sl.st.depot_puts + 1;
  note_acquire sl ~contended:(Depot.put_partial t.depot items)

(* One step up, retried if another domain's step got in first (each
   signal is one step), and nothing at the ceiling.  The depot keeps
   the larger of two racing geometry updates, so it ends at the
   highest level whatever order they land in. *)
let rec grow t sl =
  let k = Atomic.get t.level in
  if k < max_level then
    if Atomic.compare_and_set t.level k (k + 1) then begin
      Depot.set_geometry t.depot ~target:(target_at t (k + 1))
        ~max_batches:(bound_at t (k + 1));
      sl.st.grows <- sl.st.grows + 1
    end
    else grow t sl

(* Re-cut the calling domain's magazine to the current level's target.
   The magazine geometry is immutable (its invariants depend on it), so
   adaptation swaps in a fresh magazine and re-feeds the old contents;
   any flush this produces goes to the depot as usual. *)
let sync_magazine t sl =
  let want = target_at t (Atomic.get t.level) in
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
   allocates never flushes, so it adopts the current level here. *)
let alloc_miss t sl =
  sync_magazine t sl;
  sl.st.depot_gets <- sl.st.depot_gets + 1;
  let batch, contended = Depot.get t.depot in
  note_acquire sl ~contended;
  match batch with
  | Some batch ->
      (* A batch cut at a higher level than this magazine's (another
         domain grew the pool after this one's sync) overfills it: the
         excess goes back as loose items. *)
      (match Magazine.install sl.mag batch with
      | [] -> ()
      | excess -> deposit_partial t sl excess);
      Magazine.get sl.mag
  | None ->
      sl.st.creates <- sl.st.creates + 1;
      t.ctor ()

let alloc t =
  let sl = slot t in
  sl.st.allocs <- sl.st.allocs + 1;
  match Magazine.get sl.mag with
  | x -> x
  | exception Magazine.Empty -> alloc_miss t sl

(* [main] and [aux] were both full: the flush safe point. *)
let flush t sl batch =
  let dropped = deposit t sl batch in
  if t.mode = `Adaptive then begin
    if dropped || sl.saw_contended then grow t sl;
    sl.saw_contended <- false;
    sync_magazine t sl
  end

let release t x =
  (match t.reset with Some f -> f x | None -> ());
  let sl = slot t in
  sl.st.frees <- sl.st.frees + 1;
  match Magazine.put sl.mag x with
  | `Ok -> ()
  | `Flush batch -> flush t sl batch

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
       let tgt = target_at t (Atomic.get t.level) in
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
let current_target t = target_at t (Atomic.get t.level)
let depot_bound t = bound_at t (Atomic.get t.level)
let depot_batches t = Depot.batches t.depot
