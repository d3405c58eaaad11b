open Sim

(* Charged cost of one adaptation decision: the kernel would update a
   small tunable table under a short critical section. *)
let w_adjust = 6

(* The policy constants the interface documents. *)
let min_target = 1
let shrink_shift = 1
let grow_step = 1
let grow_grants = 4
let grow_allocs = 64
let max_retries = 8

let state (ctx : Ctx.t) = ctx.Ctx.pressure
let enabled (ctx : Ctx.t) = (state ctx).Ctx.enabled

(* Classes whose adaptive bounds sit below the boot-time defaults.
   Recomputed after every adjustment (host-side, O(nsizes)); the count
   lets [note_success] cost a single host branch once recovery is
   complete. *)
let recount (ctx : Ctx.t) =
  let pr = state ctx in
  let p = Ctx.params ctx in
  let below = ref 0 in
  for si = 0 to Params.nsizes p - 1 do
    if
      pr.Ctx.desired_targets.(si) < p.Params.targets.(si)
      || pr.Ctx.desired_gbltargets.(si) < p.Params.gbltargets.(si)
    then incr below
  done;
  pr.Ctx.below_default <- !below

let reset_desired (ctx : Ctx.t) =
  let pr = state ctx in
  let p = Ctx.params ctx in
  let n = Params.nsizes p in
  Array.blit p.Params.targets 0 pr.Ctx.desired_targets 0 n;
  Array.blit p.Params.gbltargets 0 pr.Ctx.desired_gbltargets 0 n;
  pr.Ctx.below_default <- 0;
  pr.Ctx.denial_streak <- 0;
  pr.Ctx.clean_allocs <- 0

let snapshot_vm (ctx : Ctx.t) =
  let pr = state ctx in
  pr.Ctx.grants_snapshot <- Vmsys.grant_count ctx.Ctx.vmsys;
  pr.Ctx.denials_snapshot <- Vmsys.denial_count ctx.Ctx.vmsys

let enable (ctx : Ctx.t) =
  reset_desired ctx;
  snapshot_vm ctx;
  (state ctx).Ctx.enabled <- true

(* Host-side administrative reset, boot idiom: put the defaults back
   into every per-CPU target word directly (uncharged, like
   [Percpu.boot_init]), since with the subsystem off the safe-point
   sync that would otherwise repair them never runs. *)
let disable (ctx : Ctx.t) =
  let pr = state ctx in
  pr.Ctx.enabled <- false;
  reset_desired ctx;
  let mem = Ctx.memory ctx in
  let ly = ctx.Ctx.layout in
  for cpu = 0 to ly.Layout.ncpus - 1 do
    for si = 0 to ly.Layout.nsizes - 1 do
      let tgt = ly.Layout.params.Params.targets.(si) in
      pr.Ctx.pcc_targets.((cpu * ly.Layout.nsizes) + si) <- tgt;
      Memory.set mem (Layout.pcc_addr ly ~cpu ~si + Percpu.o_target) tgt
    done
  done

(* Multiplicative decrease of every class's bounds (memory pressure is
   a machine-wide condition, so all classes give ground together). *)
let note_denial (ctx : Ctx.t) =
  let pr = state ctx in
  if pr.Ctx.enabled then begin
    Machine.sync ();
    let p = Ctx.params ctx in
    pr.Ctx.denial_streak <- pr.Ctx.denial_streak + 1;
    let changed = ref false in
    for si = 0 to Params.nsizes p - 1 do
      let nt = max min_target (pr.Ctx.desired_targets.(si) lsr shrink_shift) in
      let ng = max 1 (pr.Ctx.desired_gbltargets.(si) lsr shrink_shift) in
      if nt <> pr.Ctx.desired_targets.(si) || ng <> pr.Ctx.desired_gbltargets.(si)
      then begin
        changed := true;
        pr.Ctx.desired_targets.(si) <- nt;
        pr.Ctx.desired_gbltargets.(si) <- ng;
        ctx.Ctx.stats.Kstats.target_shrinks <-
          ctx.Ctx.stats.Kstats.target_shrinks + 1;
        if Trace.on () then
          Trace.emit
            (Flightrec.Event.Target_adjust
               { si; target = nt; gbltarget = ng; grow = false })
      end
    done;
    if !changed then begin
      recount ctx;
      Machine.work w_adjust;
      Machine.sync ()
    end;
    pr.Ctx.clean_allocs <- 0;
    snapshot_vm ctx
  end

(* Additive recovery toward the defaults, one step per [grow_grants]
   denial-free VM grants — or per [grow_allocs] denial-free successful
   allocations, the fallback clock for when the shrunk allocator is
   served entirely from its own caches and stops asking the VM system
   for anything (no grants means no grant-based ticks, but it is just
   as much evidence that the pressure has passed).  Called from
   allocation success paths; a single host branch when nothing remains
   shrunk.  Every entry point here reads or writes state all CPUs
   share (the pressure state, the VM counters), so each one, and each
   step after a run-ahead [w_adjust] charge, is anchored with
   [Machine.sync]. *)
let note_success (ctx : Ctx.t) =
  let pr = state ctx in
  if pr.Ctx.enabled then Machine.sync ();
  if pr.Ctx.enabled && pr.Ctx.below_default > 0 then begin
    let v = ctx.Ctx.vmsys in
    let g = Vmsys.grant_count v in
    let d = Vmsys.denial_count v in
    if d <> pr.Ctx.denials_snapshot then begin
      (* Denials are still arriving: restart the recovery clock. *)
      pr.Ctx.grants_snapshot <- g;
      pr.Ctx.denials_snapshot <- d;
      pr.Ctx.clean_allocs <- 0
    end
    else begin
      pr.Ctx.clean_allocs <- pr.Ctx.clean_allocs + 1;
      if
        g - pr.Ctx.grants_snapshot >= grow_grants
        || pr.Ctx.clean_allocs >= grow_allocs
      then begin
        let p = Ctx.params ctx in
        pr.Ctx.denial_streak <- 0;
        for si = 0 to Params.nsizes p - 1 do
          let nt =
            min p.Params.targets.(si) (pr.Ctx.desired_targets.(si) + grow_step)
          in
          let ng =
            min p.Params.gbltargets.(si)
              (pr.Ctx.desired_gbltargets.(si) + grow_step)
          in
          if
            nt <> pr.Ctx.desired_targets.(si)
            || ng <> pr.Ctx.desired_gbltargets.(si)
          then begin
            pr.Ctx.desired_targets.(si) <- nt;
            pr.Ctx.desired_gbltargets.(si) <- ng;
            ctx.Ctx.stats.Kstats.target_grows <-
              ctx.Ctx.stats.Kstats.target_grows + 1;
            if Trace.on () then
              Trace.emit
                (Flightrec.Event.Target_adjust
                   { si; target = nt; gbltarget = ng; grow = true })
          end
        done;
        recount ctx;
        Machine.work w_adjust;
        Machine.sync ();
        pr.Ctx.grants_snapshot <- g;
        pr.Ctx.denials_snapshot <- d;
        pr.Ctx.clean_allocs <- 0
      end
    end
  end

(* One kmem_reap pass on the current CPU.  Light: flush the reserve
   (aux) lists and trim the global layer to one list per class.  Full:
   flush both halves and empty the global layer.  Either way the
   coalesce-to-page layer returns every page that becomes fully free
   to the VM system immediately, which is what makes the retry after a
   genuine (non-injected) denial succeed.  Returns the number of
   physical pages that made it back. *)
let reap (ctx : Ctx.t) ~full =
  let v = ctx.Ctx.vmsys in
  Machine.sync ();
  let before = Vmsys.reclaim_count v in
  if Trace.on () then Trace.emit (Flightrec.Event.Reap { full });
  let nsizes = ctx.Ctx.layout.Layout.nsizes in
  for si = 0 to nsizes - 1 do
    if full then begin
      Percpu.drain ctx ~si;
      Global.drain_all ctx ~si
    end
    else begin
      Percpu.drain_aux ctx ~si;
      Global.trim ctx ~si ~keep:1
    end
  done;
  Machine.sync ();
  let pages = Vmsys.reclaim_count v - before in
  let st = ctx.Ctx.stats in
  st.Kstats.reaps <- st.Kstats.reaps + 1;
  st.Kstats.reap_pages <- st.Kstats.reap_pages + pages;
  pages

(* The bounded retry path wrapped around an allocation attempt:
   attempt, and on failure shrink + reap + retry, degrading to 0 after
   [max_retries] attempts or as soon as the situation is provably
   hopeless (nothing reclaimed and the VM system empty). *)
let with_retries (ctx : Ctx.t) (attempt : unit -> int) =
  if not (enabled ctx) then attempt ()
  else begin
    let st = ctx.Ctx.stats in
    let rec go n =
      let a = attempt () in
      if a <> 0 then begin
        if n > 0 then
          st.Kstats.pressure_retries <- st.Kstats.pressure_retries + 1;
        note_success ctx;
        a
      end
      else if n >= max_retries then begin
        st.Kstats.pressure_failures <- st.Kstats.pressure_failures + 1;
        0
      end
      else begin
        note_denial ctx;
        let reclaimed = reap ctx ~full:(n > 0) in
        if reclaimed = 0 && Vmsys.available ctx.Ctx.vmsys = 0 && n > 0 then begin
          (* A full reap found nothing and the VM system is empty:
             every remaining block is live (or cached by another CPU,
             which we cannot touch) — retrying cannot help. *)
          st.Kstats.pressure_failures <- st.Kstats.pressure_failures + 1;
          0
        end
        else go (n + 1)
      end
    in
    go 0
  end

(* --- host-side oracles --- *)

let desired_target (ctx : Ctx.t) ~si = (state ctx).Ctx.desired_targets.(si)

let desired_gbltarget (ctx : Ctx.t) ~si =
  (state ctx).Ctx.desired_gbltargets.(si)

let at_defaults (ctx : Ctx.t) =
  recount ctx;
  (state ctx).Ctx.below_default = 0

let denial_streak (ctx : Ctx.t) = (state ctx).Ctx.denial_streak
