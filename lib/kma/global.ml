open Sim

(* Record layout at [Layout.gbl_node_addr] (lock occupies the first
   line); one record per (node, size) — node 0's records are the whole
   layer on a flat machine:
   +line+0 gblfree head (first block of first list)
   +line+1 number of lists on gblfree
   +line+2 bucket head
   +line+3 bucket count *)

let fld (ly : Layout.t) ~node ~si i =
  Layout.gbl_node_addr ly ~node ~si + ly.Layout.line_words + i

let f_head ly ~node ~si = fld ly ~node ~si 0
let f_nlists ly ~node ~si = fld ly ~node ~si 1
let f_bucket ly ~node ~si = fld ly ~node ~si 2
let f_bucket_cnt ly ~node ~si = fld ly ~node ~si 3

(* Which node's pool the executing CPU works against.  [cpu_id] is an
   operation (a scheduler yield point, though free of charge), so the
   flat layer must not even ask — it pins node 0, keeping every
   pre-NUMA run bit-identical. *)
let cur_node (ctx : Ctx.t) =
  if ctx.Ctx.numa_global then
    Config.node_of (Machine.config ctx.Ctx.machine) (Machine.cpu_id ())
  else 0

let glock (ctx : Ctx.t) ~node ~si =
  ctx.Ctx.glocks.((node * ctx.Ctx.layout.Layout.nsizes) + si)

let boot_init (ctx : Ctx.t) =
  let mem = Ctx.memory ctx in
  let ly = ctx.Ctx.layout in
  for node = 0 to ly.Layout.nnodes - 1 do
    for si = 0 to ly.Layout.nsizes - 1 do
      Memory.set mem (f_head ly ~node ~si) 0;
      Memory.set mem (f_nlists ly ~node ~si) 0;
      Memory.set mem (f_bucket ly ~node ~si) 0;
      Memory.set mem (f_bucket_cnt ly ~node ~si) 0
    done
  done

(* Once pressure is enabled both bounds become the adaptive values
   (host-side reads either way, like any [Params] read; the global
   layer has no per-CPU copies to synchronise, and every use is under
   the per-size spinlock, so any point is a safe point here).  Other
   CPUs' pressure passes write them, so the adaptive reads are
   anchored with [Machine.sync]. *)
let target (ctx : Ctx.t) si =
  let pr = ctx.Ctx.pressure in
  if pr.Ctx.enabled then begin
    Machine.sync ();
    pr.Ctx.desired_targets.(si)
  end
  else (Ctx.params ctx).Params.targets.(si)

let gbltarget (ctx : Ctx.t) si =
  let pr = ctx.Ctx.pressure in
  if pr.Ctx.enabled then begin
    Machine.sync ();
    pr.Ctx.desired_gbltargets.(si)
  end
  else (Ctx.params ctx).Params.gbltargets.(si)

(* --- list-of-lists primitives (node's lock held) --- *)

let push_list ctx ~node ~si head ~count =
  let ly = ctx.Ctx.layout in
  Machine.write (head + Freelist.next_list)
    (Machine.read (f_head ly ~node ~si));
  Machine.write (head + Freelist.count) count;
  Machine.write (f_head ly ~node ~si) head;
  Machine.write (f_nlists ly ~node ~si)
    (Machine.read (f_nlists ly ~node ~si) + 1)

let pop_list ctx ~node ~si =
  let ly = ctx.Ctx.layout in
  let head = Machine.read (f_head ly ~node ~si) in
  if head = 0 then (0, 0)
  else begin
    Machine.write (f_head ly ~node ~si)
      (Machine.read (head + Freelist.next_list));
    Machine.write (f_nlists ly ~node ~si)
      (Machine.read (f_nlists ly ~node ~si) - 1);
    (head, Machine.read (head + Freelist.count))
  end

(* Move up to [n] blocks off the bucket into a fresh chain. *)
let take_from_bucket ctx ~node ~si ~n =
  let ly = ctx.Ctx.layout in
  let cnt = Machine.read (f_bucket_cnt ly ~node ~si) in
  if cnt = 0 then (0, 0)
  else begin
    let head, taken = Freelist.take_n ~head:(f_bucket ly ~node ~si) ~n in
    Machine.write (f_bucket_cnt ly ~node ~si) (cnt - taken);
    (head, taken)
  end

(* Drain up to [gbltarget] lists down to the coalesce-to-page layer
   (overflow hysteresis).  Stops at the first empty pop: once [f_head]
   reads 0 every further iteration would just re-read it while still
   holding the per-size spinlock, lengthening the critical section for
   nothing. *)
let drain_node ctx ~node ~si =
  let st = Kstats.size ctx.Ctx.stats si in
  st.Kstats.gbl_put_misses <- st.Kstats.gbl_put_misses + 1;
  let rec go n =
    if n > 0 then begin
      let head, count = pop_list ctx ~node ~si in
      if head <> 0 then begin
        Pagepool.put_blocks ctx ~si ~head ~count;
        go (n - 1)
      end
    end
  in
  go (gbltarget ctx si)

let drain ctx ~si = drain_node ctx ~node:(cur_node ctx) ~si

(* Refill up to [gbltarget] lists from the coalesce-to-page layer
   (underflow hysteresis).  Short lists go via the bucket so gblfree
   only ever carries full lists from this path. *)
let refill ctx ~node ~si =
  let ly = ctx.Ctx.layout in
  let st = Kstats.size ctx.Ctx.stats si in
  st.Kstats.gbl_get_misses <- st.Kstats.gbl_get_misses + 1;
  let tgt = target ctx si in
  let want_lists = gbltarget ctx si in
  let rec go n =
    if n < want_lists then begin
      let head, got = Pagepool.get_blocks ctx ~si ~want:tgt in
      if got = tgt then begin
        push_list ctx ~node ~si head ~count:tgt;
        go (n + 1)
      end
      else if got > 0 then begin
        (* Memory is running out: keep the stragglers on the bucket. *)
        let bcnt = Machine.read (f_bucket_cnt ly ~node ~si) in
        Freelist.iter_chain head (fun blk ~next:_ ->
            Freelist.push ~head:(f_bucket ly ~node ~si) blk);
        Machine.write (f_bucket_cnt ly ~node ~si) (bcnt + got)
      end
    end
  in
  go 0

let get_list (ctx : Ctx.t) ~si =
  let st = Kstats.size ctx.Ctx.stats si in
  let node = cur_node ctx in
  Sim.Spinlock.with_lock (glock ctx ~node ~si) (fun () ->
      st.Kstats.gbl_gets <- st.Kstats.gbl_gets + 1;
      let result =
        let head, count = pop_list ctx ~node ~si in
        if head <> 0 then (head, count, false)
        else begin
          let tgt = target ctx si in
          let bh, bc = take_from_bucket ctx ~node ~si ~n:tgt in
          if bc > 0 then (bh, bc, false)
          else begin
            refill ctx ~node ~si;
            let head, count = pop_list ctx ~node ~si in
            if head <> 0 then (head, count, true)
            else
              let bh, bc = take_from_bucket ctx ~node ~si ~n:tgt in
              (bh, bc, true)
          end
        end
      in
      let head, count, miss = result in
      if Trace.on () then Trace.emit (Flightrec.Event.Gbl_get { si; miss });
      (head, count))

let put_list (ctx : Ctx.t) ~si ~head ~count =
  let ly = ctx.Ctx.layout in
  let st = Kstats.size ctx.Ctx.stats si in
  let node = cur_node ctx in
  Sim.Spinlock.with_lock (glock ctx ~node ~si) (fun () ->
      st.Kstats.gbl_puts <- st.Kstats.gbl_puts + 1;
      push_list ctx ~node ~si head ~count;
      let overflow =
        Machine.read (f_nlists ly ~node ~si) >= 2 * gbltarget ctx si
      in
      if Trace.on () then
        Trace.emit (Flightrec.Event.Gbl_put { si; drain = overflow });
      if overflow then drain_node ctx ~node ~si)

let put_partial (ctx : Ctx.t) ~si ~head ~count =
  let ly = ctx.Ctx.layout in
  let st = Kstats.size ctx.Ctx.stats si in
  if head <> 0 then begin
    let node = cur_node ctx in
    Sim.Spinlock.with_lock (glock ctx ~node ~si) (fun () ->
        st.Kstats.gbl_puts <- st.Kstats.gbl_puts + 1;
        let bcnt = Machine.read (f_bucket_cnt ly ~node ~si) in
        Freelist.iter_chain head (fun blk ~next:_ ->
            Freelist.push ~head:(f_bucket ly ~node ~si) blk);
        Machine.write (f_bucket_cnt ly ~node ~si) (bcnt + count);
        (* Regroup full lists out of the bucket. *)
        let tgt = target ctx si in
        let rec regroup () =
          if Machine.read (f_bucket_cnt ly ~node ~si) >= tgt then begin
            let h, got = take_from_bucket ctx ~node ~si ~n:tgt in
            push_list ctx ~node ~si h ~count:got;
            regroup ()
          end
        in
        regroup ();
        let overflow =
          Machine.read (f_nlists ly ~node ~si) >= 2 * gbltarget ctx si
        in
        if Trace.on () then
          Trace.emit (Flightrec.Event.Gbl_put { si; drain = overflow });
        if overflow then drain_node ctx ~node ~si)
  end

(* Pressure trim: push lists down to the coalesce-to-page layer until
   at most [keep] remain, then regroup-and-push the bucket the same
   way.  Unlike [drain_all] this can leave the layer a working reserve
   (per node); the coalescing layer returns any page that becomes fully
   free to the VM system on the spot. *)
let trim (ctx : Ctx.t) ~si ~keep =
  let ly = ctx.Ctx.layout in
  for node = 0 to ly.Layout.nnodes - 1 do
    Sim.Spinlock.with_lock (glock ctx ~node ~si) (fun () ->
        let rec lists () =
          if Machine.read (f_nlists ly ~node ~si) > keep then begin
            let head, count = pop_list ctx ~node ~si in
            if head <> 0 then begin
              Pagepool.put_blocks ctx ~si ~head ~count;
              lists ()
            end
          end
        in
        lists ();
        let tgt = target ctx si in
        let rec bucket () =
          let head, count = take_from_bucket ctx ~node ~si ~n:tgt in
          if head <> 0 then begin
            Pagepool.put_blocks ctx ~si ~head ~count;
            bucket ()
          end
        in
        if keep = 0 then bucket ())
  done

let drain_all (ctx : Ctx.t) ~si =
  let ly = ctx.Ctx.layout in
  for node = 0 to ly.Layout.nnodes - 1 do
    Sim.Spinlock.with_lock (glock ctx ~node ~si) (fun () ->
        let rec lists () =
          let head, count = pop_list ctx ~node ~si in
          if head <> 0 then begin
            Pagepool.put_blocks ctx ~si ~head ~count;
            lists ()
          end
        in
        lists ();
        let tgt = target ctx si in
        let rec bucket () =
          let head, count = take_from_bucket ctx ~node ~si ~n:tgt in
          if head <> 0 then begin
            Pagepool.put_blocks ctx ~si ~head ~count;
            bucket ()
          end
        in
        bucket ())
  done

(* --- host-side oracles (aggregate across nodes unless noted) --- *)

let fold_nodes (ctx : Ctx.t) f init =
  let rec go node acc =
    if node >= ctx.Ctx.layout.Layout.nnodes then acc
    else go (node + 1) (f acc node)
  in
  go 0 init

let nlists_oracle (ctx : Ctx.t) ~si =
  let mem = Ctx.memory ctx in
  let ly = ctx.Ctx.layout in
  fold_nodes ctx (fun acc node -> acc + Memory.get mem (f_nlists ly ~node ~si)) 0

let bucket_count_oracle (ctx : Ctx.t) ~si =
  let mem = Ctx.memory ctx in
  let ly = ctx.Ctx.layout in
  fold_nodes ctx
    (fun acc node -> acc + Memory.get mem (f_bucket_cnt ly ~node ~si))
    0

let lists_node_oracle (ctx : Ctx.t) ~node ~si =
  let mem = Ctx.memory ctx in
  let ly = ctx.Ctx.layout in
  let rec go head n acc =
    if head = 0 then List.rev acc
    else if n > 1_000_000 then
      invalid_arg "Kma.Global.lists_oracle: next-list chain exceeds 1M nodes"
    else
      go
        (Memory.get mem (head + Freelist.next_list))
        (n + 1)
        ((head, Memory.get mem (head + Freelist.count)) :: acc)
  in
  go (Memory.get mem (f_head ly ~node ~si)) 0 []

let lists_oracle (ctx : Ctx.t) ~si =
  fold_nodes ctx
    (fun acc node -> acc @ lists_node_oracle ctx ~node ~si)
    []

let total_blocks_oracle (ctx : Ctx.t) ~si =
  List.fold_left
    (fun acc (_, cnt) -> acc + cnt)
    (bucket_count_oracle ctx ~si)
    (lists_oracle ctx ~si)

let buckets_oracle (ctx : Ctx.t) ~si =
  let mem = Ctx.memory ctx in
  let ly = ctx.Ctx.layout in
  List.rev
    (fold_nodes ctx
       (fun acc node ->
         ( Memory.get mem (f_bucket ly ~node ~si),
           Memory.get mem (f_bucket_cnt ly ~node ~si) )
         :: acc)
       [])
