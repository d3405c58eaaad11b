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
  (* Fault injection: deny a grant when the next PRNG draw, reduced to
     16 bits, falls below [fault_threshold] (0 = off). *)
  mutable fault_threshold : int;
  mutable fault_state : int;
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
    fault_state = 0;
  }

(* Same splitmix-style mixer as Workload.Prng, inlined so the simulator
   stays dependency-free; host-side state, so fault draws charge no
   simulated cycles and runs stay deterministic. *)
let fault_gamma = 0x2545F4914F6CDD1D
let fault_m1 = 0x2F58476D1CE4E5B9
let fault_m2 = 0x14D049BB133111EB

let fault_next t =
  t.fault_state <- t.fault_state + fault_gamma;
  let z = t.fault_state in
  let z = (z lxor (z lsr 30)) * fault_m1 in
  let z = (z lxor (z lsr 27)) * fault_m2 in
  (z lxor (z lsr 31)) land max_int

let set_fault_rate t ?(seed = 1) rate =
  if not (Float.is_finite rate) || rate < 0. || rate > 1. then
    invalid_arg "Sim.Vmsys.set_fault_rate: rate outside [0,1]";
  t.fault_threshold <- int_of_float (rate *. 65536.);
  t.fault_state <- seed lxor fault_gamma

let fault_rate t = float_of_int t.fault_threshold /. 65536.

(* Host-side [Machine.running], not the [cpu_id]/[now] operations: the
   recorder must add no yield points (see [Sim.Machine.running]). *)
let emit kind =
  if Flightrec.Recorder.on () then
    match Machine.running () with
    | Some (cpu, time) -> Flightrec.Recorder.emit ~cpu ~time kind
    | None -> ()

(* Entering the VM system with a (non-vm_safe) spinlock held is the
   discipline violation the paper warns about; same host-side contract
   as [emit], anchored because the checker's state is shared by every
   CPU. *)
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
    t.fault_threshold > 0 && fault_next t land 0xFFFF < t.fault_threshold
  in
  if injected || t.ngranted >= t.total then begin
    t.denials <- t.denials + 1;
    if injected then t.injected_denials <- t.injected_denials + 1;
    emit (Flightrec.Event.Vm_denial { injected });
    false
  end
  else begin
    t.ngranted <- t.ngranted + 1;
    t.grants <- t.grants + 1;
    if t.ngranted > t.peak then t.peak <- t.ngranted;
    emit Flightrec.Event.Vm_grant;
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
  emit Flightrec.Event.Vm_reclaim

let granted t = t.ngranted
let available t = t.total - t.ngranted
let total_pages t = t.total
let peak_granted t = t.peak
let grant_count t = t.grants
let reclaim_count t = t.reclaims
let denial_count t = t.denials
let injected_denial_count t = t.injected_denials

let reset_counters t =
  t.grants <- 0;
  t.reclaims <- 0;
  t.denials <- 0;
  t.injected_denials <- 0;
  t.peak <- t.ngranted
