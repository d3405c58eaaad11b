type t = { a : Memory.addr }

let locked_value = 1
let unlocked_value = 0

let init mem a =
  Memory.set mem a unlocked_value;
  { a }

let register ~addr ~name ~cls ~vm_safe =
  Flightrec.Recorder.note_lock ~addr name;
  Lockcheck.register_lock ~addr ~name ~cls ~vm_safe ()

(* Lockcheck hooks share the flight recorder's zero-perturbation
   contract: [Machine.running] only, no operations (see [Trace]). *)
let lc_acquire t =
  if Lockcheck.on () then
    match Machine.running () with
    | Some (cpu, time) -> Lockcheck.acquire ~cpu ~time ~addr:t.a
    | None -> ()

let lc_release t =
  if Lockcheck.on () then
    match Machine.running () with
    | Some (cpu, time) -> Lockcheck.release ~cpu ~time ~addr:t.a
    | None -> ()

(* Test-and-set with jittered pauses: {!Machine.spin_cas}, which wakes
   the program only for the winning attempt.  A test-and-TEST-and-set
   spin reads first and only then attempts the atomic, but in the
   simulation the read-to-CAS latency is a whole coherence miss, so
   against a holder that releases and re-acquires quickly the spinner's
   CAS would always arrive late — a livelock the bus arbitration of
   real hardware prevents.  The atomic itself samples the lock word at
   its issue instant, so spinning directly on it (with
   {!Machine.spin_pause}'s deterministic jitter de-phasing the loop)
   guarantees progress and honestly charges the bus traffic that made
   these locks expensive. *)
let acquire t =
  let spins =
    Machine.spin_cas t.a ~expected:unlocked_value ~desired:locked_value
  in
  lc_acquire t;
  if Trace.on () then
    Trace.emit (Flightrec.Event.Lock_acquire { lock = t.a; spins })

(* The releasing store is the paper's plain store.  The check reads
   host-side: the word cannot change under the holder, whose spinners'
   CASes all fail. *)
let release t =
  assert (Machine.peek t.a = locked_value);
  lc_release t;
  Machine.write t.a unlocked_value;
  if Trace.on () then Trace.emit (Flightrec.Event.Lock_release { lock = t.a })

let with_lock t f =
  acquire t;
  match f () with
  | v ->
      release t;
      v
  | exception e ->
      release t;
      raise e

let holder_oracle mem t = Memory.get mem t.a = locked_value
