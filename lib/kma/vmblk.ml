open Sim

(* Page-descriptor field offsets (within the 8-word descriptor). *)
let pd_state = 0
let pd_arg = 1
let pd_sizeidx = 2
let pd_nfree = 3
let pd_blkhead = 4
let pd_next = 5
let pd_prev = 6

(* Descriptor states.  A zeroed descriptor reads as [st_free_mid], which
   is exactly right: interior pages of free spans are never consulted. *)
let st_free_mid = 0
let st_free_head = 1
let st_free_tail = 2
let st_split = 3
let st_span_alloc = 4
let st_span_mid = 5

(* vmctl control-word offsets (after the lock line).  The skip must
   track the configured line size: with a hardcoded 8 a narrower line
   (e.g. [--geometry line=4]) shrinks the 2-line vmctl region and these
   words would land on the dope vector, corrupting the first vmblk's
   dope entry.  At the default 8-word line this is byte-for-byte the
   historical layout. *)
let ctl_span_head (ly : Layout.t) = ly.Layout.vmctl_base + ly.Layout.line_words
let ctl_nvmblks (ly : Layout.t) = ctl_span_head ly + 1

let boot_init (ctx : Ctx.t) =
  let mem = Ctx.memory ctx in
  let ly = ctx.Ctx.layout in
  Memory.set mem (ctl_span_head ly) 0;
  Memory.set mem (ctl_nvmblks ly) 0;
  Memory.fill mem ly.Layout.dope_base ~len:ly.Layout.dope_len 0

(* --- free-span list (doubly linked through pd_next/pd_prev) --- *)

let span_insert ly pd =
  let head = ctl_span_head ly in
  let old = Machine.read head in
  Machine.write (pd + pd_next) old;
  Machine.write (pd + pd_prev) 0;
  if old <> 0 then Machine.write (old + pd_prev) pd;
  Machine.write head pd

let span_remove ly pd =
  let head = ctl_span_head ly in
  let prev = Machine.read (pd + pd_prev) in
  let next = Machine.read (pd + pd_next) in
  if prev = 0 then Machine.write head next
  else Machine.write (prev + pd_next) next;
  if next <> 0 then Machine.write (next + pd_prev) prev

(* Mark the descriptors of a free span: head carries the length, tail
   points back at the head; a one-page span is its own tail and stays in
   state [st_free_head]. *)
let mark_free_span ly ~head_pd ~len =
  Machine.write (head_pd + pd_state) st_free_head;
  Machine.write (head_pd + pd_arg) len;
  if len > 1 then begin
    let tail_pd = head_pd + ((len - 1) * ly.Layout.pd_words) in
    Machine.write (tail_pd + pd_state) st_free_tail;
    Machine.write (tail_pd + pd_arg) head_pd
  end

(* Grow the arena by one vmblk: reserve the next vmblk's virtual
   address range, publish it in the dope vector, and enter its data
   pages as a single free span.  Called with the vmblk lock held.
   Returns false when the virtual arena is exhausted. *)
let grow (ctx : Ctx.t) =
  let ly = ctx.Ctx.layout in
  let n = Machine.read (ctl_nvmblks ly) in
  if n >= ly.Layout.arena_vmblks then false
  else begin
    Machine.work 50 (* VM bookkeeping for a fresh address range *);
    let vb = Layout.vmblk_addr ly ~index:n in
    Machine.write (Layout.dope_entry ly vb) vb;
    let head_pd = Layout.pd_addr ly ~vmblk:vb ~data_page:0 in
    mark_free_span ly ~head_pd ~len:ly.Layout.data_pages;
    span_insert ly head_pd;
    Machine.write (ctl_nvmblks ly) (n + 1);
    true
  end

(* First-fit search of the free-span list.  Returns the head descriptor
   of a span with at least [npages] pages, or 0. *)
let find_span ly ~npages =
  let rec go pd =
    if pd = 0 then 0
    else if Machine.read (pd + pd_arg) >= npages then pd
    else go (Machine.read (pd + pd_next))
  in
  go (Machine.read (ctl_span_head ly))

let mark_allocated_span ly ~head_pd ~npages =
  Machine.write (head_pd + pd_state) st_span_alloc;
  Machine.write (head_pd + pd_arg) npages;
  for i = 1 to npages - 1 do
    Machine.write (head_pd + (i * ly.Layout.pd_words) + pd_state) st_span_mid
  done

(* Allocate [npages] from the front of span [pd]; requires the vmblk
   lock.  Fixes up the remainder (if any) and re-inserts it. *)
let carve ly pd ~npages =
  let len = Machine.read (pd + pd_arg) in
  span_remove ly pd;
  if len > npages then begin
    let rest_pd = pd + (npages * ly.Layout.pd_words) in
    let rest_len = len - npages in
    mark_free_span ly ~head_pd:rest_pd ~len:rest_len;
    span_insert ly rest_pd
  end;
  mark_allocated_span ly ~head_pd:pd ~npages

(* Merge a just-freed span (already on the list, marked free) with its
   free neighbours.  Shared by [free_pages] and the grant-failure path
   of [alloc_pages].  Boundary-tag check: the page before ours is the
   last page of a free span iff its descriptor reads [st_free_tail], or
   [st_free_head] with length 1. *)
let coalesce_back (ly : Layout.t) head_pd len =
  let pdw = ly.Layout.pd_words in
  let vb = Layout.vmblk_of_addr ly head_pd in
  let dp_of pd = (pd - vb) / pdw in
  (* Merge with a free span ending just before ours. *)
  let head_pd, len =
    if dp_of head_pd = 0 then (head_pd, len)
    else begin
      let before = head_pd - pdw in
      let st = Machine.read (before + pd_state) in
      let pred_head =
        if st = st_free_tail then Machine.read (before + pd_arg)
        else if st = st_free_head && Machine.read (before + pd_arg) = 1 then
          before
        else 0
      in
      if pred_head = 0 then (head_pd, len)
      else begin
        let pred_len = Machine.read (pred_head + pd_arg) in
        span_remove ly head_pd;
        span_remove ly pred_head;
        (* Old boundary descriptors become interior. *)
        Machine.write (before + pd_state) st_free_mid;
        Machine.write (head_pd + pd_state) st_free_mid;
        mark_free_span ly ~head_pd:pred_head ~len:(pred_len + len);
        span_insert ly pred_head;
        (pred_head, pred_len + len)
      end
    end
  in
  (* Merge with a free span starting just after ours. *)
  if dp_of head_pd + len < ly.Layout.data_pages then begin
    let after = head_pd + (len * pdw) in
    if Machine.read (after + pd_state) = st_free_head then begin
      let succ_len = Machine.read (after + pd_arg) in
      span_remove ly after;
      span_remove ly head_pd;
      (* Old boundary descriptors become interior. *)
      Machine.write (after + pd_state) st_free_mid;
      if len > 1 then
        Machine.write (head_pd + ((len - 1) * pdw) + pd_state) st_free_mid;
      mark_free_span ly ~head_pd ~len:(len + succ_len);
      span_insert ly head_pd
    end
  end

let alloc_pages (ctx : Ctx.t) ~npages =
  assert (npages >= 1);
  let ly = ctx.Ctx.layout in
  if npages > ly.Layout.data_pages then 0
  else
    Sim.Spinlock.with_lock ctx.Ctx.vlock (fun () ->
        let rec locate () =
          match find_span ly ~npages with
          | 0 -> if grow ctx then locate () else 0
          | pd -> pd
        in
        let pd = locate () in
        if pd = 0 then 0
        else begin
          (* Back the span with physical pages; on partial failure undo
             the grants and put the span back. *)
          let rec back i =
            if i >= npages then true
            else if Vmsys.grant ctx.Ctx.vmsys then back (i + 1)
            else begin
              for _ = 1 to i do
                Vmsys.reclaim ctx.Ctx.vmsys
              done;
              false
            end
          in
          carve ly pd ~npages;
          if back 0 then begin
            let page = Layout.page_of_pd ly ~pd in
            if Trace.on () then
              Trace.emit (Flightrec.Event.Vmblk_carve { npages; page });
            page
          end
          else begin
            (* Out of physical memory: release the span again (it will
               coalesce with whatever we just split it from).
               [mark_allocated_span] put the interior descriptors in
               [st_span_mid]; they must go back to [st_free_mid] or a
               later neighbour free would read a stale span interior
               where the boundary-tag encoding promises free-mid. *)
            for i = 1 to npages - 1 do
              Machine.write (pd + (i * ly.Layout.pd_words) + pd_state)
                st_free_mid
            done;
            mark_free_span ly ~head_pd:pd ~len:npages;
            span_insert ly pd;
            coalesce_back ly pd npages;
            0
          end
        end)

let free_pages (ctx : Ctx.t) ~page ~npages =
  assert (npages >= 1);
  let ly = ctx.Ctx.layout in
  Sim.Spinlock.with_lock ctx.Ctx.vlock (fun () ->
      for _ = 1 to npages do
        Vmsys.reclaim ctx.Ctx.vmsys
      done;
      let head_pd = Layout.pd_of_page ly ~page_addr:page in
      (* [mark_allocated_span] left the interior descriptors in
         [st_span_mid]; the boundary-tag tiling requires free-span
         interiors to read [st_free_mid] (a later carve of this span
         relies on zeroed interiors). *)
      for i = 1 to npages - 1 do
        Machine.write (head_pd + (i * ly.Layout.pd_words) + pd_state)
          st_free_mid
      done;
      mark_free_span ly ~head_pd ~len:npages;
      span_insert ly head_pd;
      coalesce_back ly head_pd npages;
      if Trace.on () then
        Trace.emit (Flightrec.Event.Vmblk_coalesce { npages; page }))

let pd_of_block (ctx : Ctx.t) a =
  let ly = ctx.Ctx.layout in
  let vb = Machine.read (Layout.dope_entry ly a) in
  assert (vb <> 0);
  let page_index = (a - vb) lsr ly.Layout.page_shift in
  let dp = page_index - ly.Layout.hdr_pages in
  assert (dp >= 0 && dp < ly.Layout.data_pages);
  Layout.pd_addr ly ~vmblk:vb ~data_page:dp

let pages_of_bytes (ly : Layout.t) bytes =
  let page_bytes = ly.Layout.page_words * Params.bytes_per_word in
  (bytes + page_bytes - 1) / page_bytes

let alloc_large (ctx : Ctx.t) ~bytes =
  let npages = pages_of_bytes ctx.Ctx.layout bytes in
  Machine.work 20 (* request validation and span-size arithmetic *);
  let a = alloc_pages ctx ~npages in
  if a <> 0 then ctx.Ctx.stats.Kstats.large_allocs <- ctx.Ctx.stats.Kstats.large_allocs + 1;
  if Trace.on () then
    Trace.emit (Flightrec.Event.Large_alloc { npages; ok = a <> 0 });
  a

let free_large (ctx : Ctx.t) ~addr ~bytes =
  let ly = ctx.Ctx.layout in
  let npages = pages_of_bytes ly bytes in
  Machine.work 20;
  let pd = pd_of_block ctx addr in
  (* Host-side checks: the caller owns the span, so no other CPU writes
     its head descriptor until [free_pages] below. *)
  assert (Machine.peek (pd + pd_state) = st_span_alloc);
  assert (Machine.peek (pd + pd_arg) = npages);
  free_pages ctx ~page:addr ~npages;
  ctx.Ctx.stats.Kstats.large_frees <- ctx.Ctx.stats.Kstats.large_frees + 1;
  if Trace.on () then Trace.emit (Flightrec.Event.Large_free { npages })

(* --- host-side oracles --- *)

let free_span_lengths_oracle (ctx : Ctx.t) =
  let mem = Ctx.memory ctx in
  let ly = ctx.Ctx.layout in
  let rec go pd acc =
    if pd = 0 then List.rev acc
    else
      go (Memory.get mem (pd + pd_next)) (Memory.get mem (pd + pd_arg) :: acc)
  in
  go (Memory.get mem (ctl_span_head ly)) []

let nvmblks_oracle (ctx : Ctx.t) =
  Memory.get (Ctx.memory ctx) (ctl_nvmblks ctx.Ctx.layout)

let free_spans_oracle (ctx : Ctx.t) =
  let mem = Ctx.memory ctx in
  let ly = ctx.Ctx.layout in
  let cap = Layout.total_data_pages ly + 1 in
  let rec go pd n acc =
    if pd = 0 then List.rev acc
    else if n > cap then
      invalid_arg "Kma.Vmblk.free_spans_oracle: span list exceeds the arena"
    else
      go
        (Memory.get mem (pd + pd_next))
        (n + 1)
        ((pd, Memory.get mem (pd + pd_arg)) :: acc)
  in
  go (Memory.get mem (ctl_span_head ly)) 0 []
