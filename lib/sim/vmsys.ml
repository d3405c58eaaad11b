type t = {
  total : int;
  grant_cost : int;
  reclaim_cost : int;
  mutable ngranted : int;
  mutable peak : int;
  mutable grants : int;
  mutable reclaims : int;
  mutable denials : int;
  mutable injected_denials : int;
  (* Fault injection: deny a grant when the next draw below 2^16 falls
     below [fault_threshold] (0 = off).  Host-side state, so fault
     draws charge no simulated cycles and runs stay deterministic. *)
  mutable fault_threshold : int;
  mutable fault_rng : Prng.t;
}

let create ~total_pages ~grant_cost ~reclaim_cost =
  if total_pages <= 0 then invalid_arg "Sim.Vmsys.create: total_pages";
  if grant_cost < 0 || reclaim_cost < 0 then
    invalid_arg "Sim.Vmsys.create: negative cost";
  {
    total = total_pages;
    grant_cost;
    reclaim_cost;
    ngranted = 0;
    peak = 0;
    grants = 0;
    reclaims = 0;
    denials = 0;
    injected_denials = 0;
    fault_threshold = 0;
    fault_rng = Prng.create ~seed:1;
  }

let set_fault_rate t ?(seed = 1) rate =
  if not (Float.is_finite rate) || rate < 0. || rate > 1. then
    invalid_arg "Sim.Vmsys.set_fault_rate: rate outside [0,1]";
  t.fault_threshold <- int_of_float (rate *. 65536.);
  t.fault_rng <- Prng.create ~seed

(* Entering the VM system with a (non-vm_safe) spinlock held is the
   discipline violation the paper warns about; same host-side contract
   as [Trace.emit], anchored because the checker's state is shared by
   every CPU. *)
let lc_vm what =
  if Lockcheck.on () then begin
    Machine.sync ();
    match Machine.running () with
    | Some (cpu, time) -> Lockcheck.vm_call ~cpu ~time ~what
    | None -> ()
  end

(* The page counts and the fault PRNG are shared by every CPU, and the
   charge before them runs ahead of the schedule: each decision is
   anchored after it. *)
let grant t =
  lc_vm "grant";
  Machine.work t.grant_cost;
  Machine.sync ();
  let injected =
    t.fault_threshold > 0
    && Prng.int t.fault_rng ~bound:65536 < t.fault_threshold
  in
  if injected || t.ngranted >= t.total then begin
    t.denials <- t.denials + 1;
    if injected then t.injected_denials <- t.injected_denials + 1;
    if Trace.on () then Trace.emit (Flightrec.Event.Vm_denial { injected });
    false
  end
  else begin
    t.ngranted <- t.ngranted + 1;
    t.grants <- t.grants + 1;
    if t.ngranted > t.peak then t.peak <- t.ngranted;
    if Trace.on () then Trace.emit Flightrec.Event.Vm_grant;
    true
  end

let reclaim t =
  lc_vm "reclaim";
  Machine.work t.reclaim_cost;
  Machine.sync ();
  if t.ngranted <= 0 then
    invalid_arg "Sim.Vmsys.reclaim: more reclaims than grants";
  t.ngranted <- t.ngranted - 1;
  t.reclaims <- t.reclaims + 1;
  if Trace.on () then Trace.emit Flightrec.Event.Vm_reclaim

let granted t = t.ngranted
let available t = t.total - t.ngranted
let peak_granted t = t.peak
let grant_count t = t.grants
let reclaim_count t = t.reclaims
let denial_count t = t.denials
let injected_denial_count_oracle t = t.injected_denials

let reset_counters t =
  t.grants <- 0;
  t.reclaims <- 0;
  t.denials <- 0;
  t.injected_denials <- 0;
  t.peak <- t.ngranted
