open Sim

exception Corruption of string

let poison = Params.debug_poison

let o_main_head = 0
let o_main_cnt = 1
let o_aux_head = 2
let o_aux_cnt = 3
let o_target = 4

(* Straight-line instruction charges calibrating the warm fast paths to
   the paper's 13-instruction cookie interface (7 memory/interrupt
   operations + 6 ALU/branch instructions for alloc; 8 + 5 for free). *)
let w_alloc_fast = 6
let w_free_fast = 5
let w_slow_branch = 8

(* Each CPU's control blocks are line-isolated and only ever touched by
   that CPU's simulated code, so they are declared owner-private: the
   simulator may then run their hits ahead of its schedule. *)
let boot_init (ctx : Ctx.t) =
  let mem = Ctx.memory ctx in
  let ly = ctx.Ctx.layout in
  for cpu = 0 to ly.Layout.ncpus - 1 do
    Cache.own (Machine.cache ctx.Ctx.machine)
      ~addr:(Layout.pcc_addr ly ~cpu ~si:0)
      ~words:(ly.Layout.nsizes * ly.Layout.pcc_words)
      (Cache.Cpu cpu);
    for si = 0 to ly.Layout.nsizes - 1 do
      let pcc = Layout.pcc_addr ly ~cpu ~si in
      Memory.set mem (pcc + o_main_head) 0;
      Memory.set mem (pcc + o_main_cnt) 0;
      Memory.set mem (pcc + o_aux_head) 0;
      Memory.set mem (pcc + o_aux_cnt) 0;
      Memory.set mem (pcc + o_target) ly.Layout.params.Params.targets.(si)
    done
  done

(* Interrupt-discipline probe for the lockcheck validator: simulated
   code is about to touch the per-CPU cache state owned by CPU [owner].
   Host-side only — [Machine.running] / [running_irq_off] perform no
   operation, so the probe adds no yield point and simulated cycles are
   bit-identical with the checker on or off.  The checker's state is
   shared by every CPU and the [irq_disable] before the probe runs
   ahead of the schedule, so the probe is anchored. *)
let lockcheck_probe ~owner =
  if Lockcheck.on () then begin
    Machine.sync ();
    match Machine.running () with
    | Some (cpu, time) ->
        Lockcheck.percpu_access ~cpu ~time ~owner
          ~irq_off:(Machine.running_irq_off ())
    | None -> ()
  end

(* Propagate an adaptively changed [target] into this CPU's cache
   word.  Called only from the slow paths, with interrupts disabled, by
   the owning CPU — the safe points at which the pressure subsystem may
   change layer-1 bounds, so layer 1 stays lock-free and the warm fast
   paths keep their calibrated instruction counts.  The host-side
   shadow makes the check free when nothing changed, and the whole
   thing is a single host branch while pressure is disabled.  The
   desired targets are host state other CPUs' pressure passes write,
   so the read is anchored. *)
let sync_target (ctx : Ctx.t) ~cpu ~si pcc =
  let pr = ctx.Ctx.pressure in
  if pr.Ctx.enabled then begin
    Machine.sync ();
    let idx = (cpu * ctx.Ctx.layout.Layout.nsizes) + si in
    let want = pr.Ctx.desired_targets.(si) in
    if pr.Ctx.pcc_targets.(idx) <> want then begin
      pr.Ctx.pcc_targets.(idx) <- want;
      Machine.write (pcc + o_target) want
    end
  end

(* The target the current CPU's cache is operating under: the adaptive
   value once pressure is enabled, the boot-time constant otherwise
   (host-side either way, like any [Params] read). *)
let live_target (ctx : Ctx.t) ~si =
  let pr = ctx.Ctx.pressure in
  if pr.Ctx.enabled then begin
    Machine.sync ();
    pr.Ctx.desired_targets.(si)
  end
  else ctx.Ctx.layout.Layout.params.Params.targets.(si)

(* Interrupts are disabled throughout; returns 0 on exhaustion.  The
   second component is the layer of satisfaction for the flight
   recorder: [Percpu] when the block came off main or aux (still
   CPU-local), [Global] when a list transfer was needed. *)
let rec alloc_disabled (ctx : Ctx.t) st ~cpu ~si pcc =
  let h = Machine.read (pcc + o_main_head) in
  if h <> 0 then begin
    Machine.write (pcc + o_main_head) (Machine.read (h + Freelist.link));
    Machine.write (pcc + o_main_cnt) (Machine.read (pcc + o_main_cnt) - 1);
    Machine.work w_alloc_fast;
    (h, Flightrec.Event.Percpu)
  end
  else begin
    Machine.work w_slow_branch;
    sync_target ctx ~cpu ~si pcc;
    let ah = Machine.read (pcc + o_aux_head) in
    if ah <> 0 then begin
      (* Slide aux into main; still purely CPU-local. *)
      st.Kstats.alloc_aux_refills <- st.Kstats.alloc_aux_refills + 1;
      Machine.write (pcc + o_main_head) ah;
      Machine.write (pcc + o_main_cnt) (Machine.read (pcc + o_aux_cnt));
      Machine.write (pcc + o_aux_head) 0;
      Machine.write (pcc + o_aux_cnt) 0;
      alloc_disabled ctx st ~cpu ~si pcc
    end
    else begin
      st.Kstats.alloc_misses <- st.Kstats.alloc_misses + 1;
      let head, count = Global.get_list ctx ~si in
      if count = 0 then (0, Flightrec.Event.Global)
      else begin
        (* First block satisfies the request; the rest become main. *)
        Machine.write (pcc + o_main_head)
          (Machine.read (head + Freelist.link));
        Machine.write (pcc + o_main_cnt) (count - 1);
        (head, Flightrec.Event.Global)
      end
    end
  end

(* Debug checks: a freed block must still carry its poison when it is
   handed out again (use-after-free write detector), and a block being
   freed must not already be fully poisoned (double-free detector). *)
let check_poison_on_alloc (ctx : Ctx.t) ~si a =
  let words = Params.size_words (Ctx.params ctx) si in
  let rec go w =
    if w < words then
      if Machine.read (a + w) <> poison then
        raise
          (Corruption
             (Printf.sprintf
                "use-after-free write in block %d (class %d, word %d)" a si
                w))
      else go (w + 1)
  in
  go 3;
  (* Break the poison so the double-free heuristic cannot fire on the
     block's first legitimate free (kernels write an "allocated"
     pattern for the same reason). *)
  if words > 3 then Machine.write (a + 3) 0x0A110CED

let apply_poison_on_free (ctx : Ctx.t) ~si a =
  let words = Params.size_words (Ctx.params ctx) si in
  if words > 3 then begin
    let rec all_poisoned w =
      w >= words
      || (Machine.read (a + w) = poison && all_poisoned (w + 1))
    in
    if all_poisoned 3 then
      raise
        (Corruption
           (Printf.sprintf "probable double free of block %d (class %d)" a
              si));
    for w = 3 to words - 1 do
      Machine.write (a + w) poison
    done
  end

let alloc (ctx : Ctx.t) ~si =
  let cpu = Machine.cpu_id () in
  let pcc = Layout.pcc_addr ctx.Ctx.layout ~cpu ~si in
  let st = Kstats.size ctx.Ctx.stats si in
  st.Kstats.allocs <- st.Kstats.allocs + 1;
  Machine.irq_disable ();
  lockcheck_probe ~owner:cpu;
  let a, layer = alloc_disabled ctx st ~cpu ~si pcc in
  Machine.irq_enable ();
  if Trace.on () then
    Trace.emit
      (if a = 0 then Flightrec.Event.Alloc_fail { si }
       else Flightrec.Event.Alloc { si; layer });
  if a <> 0 && (Ctx.params ctx).Params.debug then
    check_poison_on_alloc ctx ~si a;
  a

let free (ctx : Ctx.t) ~si a =
  assert (a <> 0);
  if (Ctx.params ctx).Params.debug then apply_poison_on_free ctx ~si a;
  let cpu = Machine.cpu_id () in
  let pcc = Layout.pcc_addr ctx.Ctx.layout ~cpu ~si in
  let st = Kstats.size ctx.Ctx.stats si in
  st.Kstats.frees <- st.Kstats.frees + 1;
  Machine.irq_disable ();
  lockcheck_probe ~owner:cpu;
  let layer = ref Flightrec.Event.Percpu in
  let cnt = Machine.read (pcc + o_main_cnt) in
  let tgt = Machine.read (pcc + o_target) in
  if cnt < tgt then begin
    Machine.write (a + Freelist.link) (Machine.read (pcc + o_main_head));
    Machine.write (pcc + o_main_head) a;
    Machine.write (pcc + o_main_cnt) (cnt + 1);
    Machine.work w_free_fast
  end
  else begin
    Machine.work w_slow_branch;
    sync_target ctx ~cpu ~si pcc;
    (* [sync_target] may have just moved this CPU's target, in which
       case the aux list was filled under the *old* bound and is no
       longer target-sized; re-read the word it may have written (the
       host branch keeps pressure-off runs bit-identical — no extra
       charged read when the word cannot have changed). *)
    let tgt =
      if (ctx.Ctx.pressure).Ctx.enabled then Machine.read (pcc + o_target)
      else tgt
    in
    let acnt = Machine.read (pcc + o_aux_cnt) in
    if acnt <> 0 then begin
      st.Kstats.free_misses <- st.Kstats.free_misses + 1;
      layer := Flightrec.Event.Global;
      let head = Machine.read (pcc + o_aux_head) in
      if acnt = tgt then
        (* aux holds a full target-sized list: one O(1) hand-off to the
           global layer. *)
        Global.put_list ctx ~si ~head ~count:acnt
      else
        (* Stale-target remainder: gblfree carries only target-sized
           lists, so an odd-sized aux must go through the bucket. *)
        Global.put_partial ctx ~si ~head ~count:acnt
    end;
    (* Slide the full main into aux, start a fresh main with [a]. *)
    Machine.write (pcc + o_aux_head) (Machine.read (pcc + o_main_head));
    Machine.write (pcc + o_aux_cnt) cnt;
    Machine.write (a + Freelist.link) 0;
    Machine.write (pcc + o_main_head) a;
    Machine.write (pcc + o_main_cnt) 1
  end;
  Machine.irq_enable ();
  if Trace.on () then Trace.emit (Flightrec.Event.Free { si; layer = !layer })

let flush_half (ctx : Ctx.t) ~si ~tgt pcc head_off cnt_off =
  let h = Machine.read (pcc + head_off) in
  let c = Machine.read (pcc + cnt_off) in
  Machine.write (pcc + head_off) 0;
  Machine.write (pcc + cnt_off) 0;
  if c = tgt then Global.put_list ctx ~si ~head:h ~count:c
  else if c > 0 then Global.put_partial ctx ~si ~head:h ~count:c

let drain (ctx : Ctx.t) ~si =
  let cpu = Machine.cpu_id () in
  let ly = ctx.Ctx.layout in
  let pcc = Layout.pcc_addr ly ~cpu ~si in
  let tgt = live_target ctx ~si in
  Machine.irq_disable ();
  lockcheck_probe ~owner:cpu;
  sync_target ctx ~cpu ~si pcc;
  flush_half ctx ~si ~tgt pcc o_main_head o_main_cnt;
  flush_half ctx ~si ~tgt pcc o_aux_head o_aux_cnt;
  Machine.irq_enable ()

(* Light reap: hand only the reserve ([aux]) list back, keeping the hot
   [main] list so the CPU's fast path stays warm through a pressure
   pass. *)
let drain_aux (ctx : Ctx.t) ~si =
  let cpu = Machine.cpu_id () in
  let ly = ctx.Ctx.layout in
  let pcc = Layout.pcc_addr ly ~cpu ~si in
  let tgt = live_target ctx ~si in
  Machine.irq_disable ();
  lockcheck_probe ~owner:cpu;
  sync_target ctx ~cpu ~si pcc;
  flush_half ctx ~si ~tgt pcc o_aux_head o_aux_cnt;
  Machine.irq_enable ()

let cached_blocks_oracle (ctx : Ctx.t) ~cpu ~si =
  let mem = Ctx.memory ctx in
  let pcc = Layout.pcc_addr ctx.Ctx.layout ~cpu ~si in
  Memory.get mem (pcc + o_main_cnt) + Memory.get mem (pcc + o_aux_cnt)

let cache_oracle (ctx : Ctx.t) ~cpu ~si =
  let mem = Ctx.memory ctx in
  let pcc = Layout.pcc_addr ctx.Ctx.layout ~cpu ~si in
  ( (Memory.get mem (pcc + o_main_head), Memory.get mem (pcc + o_main_cnt)),
    (Memory.get mem (pcc + o_aux_head), Memory.get mem (pcc + o_aux_cnt)),
    Memory.get mem (pcc + o_target) )
