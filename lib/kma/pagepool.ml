open Sim

(* Per-size radix structure, at [Layout.pagepool_addr]:
   - words [0, line): the pagepool lock (own cache line);
   - word [line]: minhint, a lower bound on the fullest non-empty
     bucket (blocks_per_page + 1 when everything is empty);
   - words [line + nfree], nfree in 1..blocks_per_page: bucket heads,
     doubly-linked lists of page descriptors with exactly [nfree] free
     blocks. *)

let minhint_addr (ly : Layout.t) ~si =
  Layout.pagepool_addr ly ~si + ly.Layout.line_words

let bucket_addr (ly : Layout.t) ~si ~nfree =
  Layout.pagepool_addr ly ~si + ly.Layout.line_words + nfree

let bpp (ly : Layout.t) si = Params.blocks_per_page ly.Layout.params si

let boot_init (ctx : Ctx.t) =
  let mem = Ctx.memory ctx in
  let ly = ctx.Ctx.layout in
  for si = 0 to ly.Layout.nsizes - 1 do
    Memory.set mem (minhint_addr ly ~si) (bpp ly si + 1);
    for nfree = 1 to bpp ly si do
      Memory.set mem (bucket_addr ly ~si ~nfree) 0
    done
  done

(* --- bucket list manipulation (lock held) --- *)

let bucket_insert ly ~si ~nfree pd =
  let head = bucket_addr ly ~si ~nfree in
  let old = Machine.read head in
  Machine.write (pd + Vmblk.pd_next) old;
  Machine.write (pd + Vmblk.pd_prev) 0;
  if old <> 0 then Machine.write (old + Vmblk.pd_prev) pd;
  Machine.write head pd;
  let hint = minhint_addr ly ~si in
  if Machine.read hint > nfree then Machine.write hint nfree

let bucket_remove ly ~si ~nfree pd =
  let head = bucket_addr ly ~si ~nfree in
  let prev = Machine.read (pd + Vmblk.pd_prev) in
  let next = Machine.read (pd + Vmblk.pd_next) in
  if prev = 0 then Machine.write head next
  else Machine.write (prev + Vmblk.pd_next) next;
  if next <> 0 then Machine.write (next + Vmblk.pd_prev) prev

(* Ablation policy: scan buckets from the emptiest page down (no hint
   maintenance; this path is for experiments, not production). *)
let find_emptiest ly ~si =
  let rec scan b =
    if b < 1 then 0
    else
      let pd = Machine.read (bucket_addr ly ~si ~nfree:b) in
      if pd <> 0 then pd else scan (b - 1)
  in
  scan (bpp ly si)

(* Find the non-empty bucket with the fewest free blocks, advancing the
   hint past exhausted buckets.  Returns its page descriptor or 0. *)
let find_fullest ly ~si =
  let hint = minhint_addr ly ~si in
  let limit = bpp ly si in
  let rec scan b =
    if b > limit then begin
      Machine.write hint (limit + 1);
      0
    end
    else
      let pd = Machine.read (bucket_addr ly ~si ~nfree:b) in
      if pd <> 0 then begin
        Machine.write hint b;
        pd
      end
      else scan (b + 1)
  in
  scan (Machine.read hint)

(* Split a fresh page into blocks: descriptor becomes [st_split] with a
   full intra-page freelist.  The block-link writes are the real cost of
   taking a page, on top of the VM grant. *)
let split_page (ctx : Ctx.t) ~si page =
  let ly = ctx.Ctx.layout in
  let words = Params.size_words ly.Layout.params si in
  let n = bpp ly si in
  let debug = ly.Layout.params.Params.debug in
  let pd = Layout.pd_of_page ly ~page_addr:page in
  Machine.write (pd + Vmblk.pd_state) Vmblk.st_split;
  Machine.write (pd + Vmblk.pd_sizeidx) si;
  Machine.write (pd + Vmblk.pd_nfree) n;
  let rec chain i acc =
    if i < 0 then acc
    else begin
      let blk = page + (i * words) in
      Machine.write (blk + Freelist.link) acc;
      (* Debug kernels hand out poisoned blocks from fresh pages too,
         so the alloc-side check holds uniformly. *)
      if debug then
        for w = 3 to words - 1 do
          Machine.write (blk + w) Params.debug_poison
        done;
      chain (i - 1) blk
    end
  in
  Machine.write (pd + Vmblk.pd_blkhead) (chain (n - 1) 0);
  bucket_insert ly ~si ~nfree:n pd

let get_blocks (ctx : Ctx.t) ~si ~want =
  assert (want >= 1);
  let ly = ctx.Ctx.layout in
  let st = Kstats.size ctx.Ctx.stats si in
  Sim.Spinlock.with_lock ctx.Ctx.plocks.(si) (fun () ->
      let rec gather acc got =
        if got >= want then (acc, got)
        else
          match
            (match (ly.Layout.params).Params.page_policy with
            | Params.Fullest_first -> find_fullest ly ~si
            | Params.Emptiest_first -> find_emptiest ly ~si)
          with
          | 0 ->
              (* No partially-free pages: split a fresh one. *)
              let page = Vmblk.alloc_pages ctx ~npages:1 in
              if page = 0 then (acc, got)
              else begin
                st.Kstats.pages_grabbed <- st.Kstats.pages_grabbed + 1;
                if Trace.on () then
                  Trace.emit (Flightrec.Event.Page_grab { si; page });
                split_page ctx ~si page;
                gather acc got
              end
          | pd ->
              let nfree = Machine.read (pd + Vmblk.pd_nfree) in
              let take = Int.min nfree (want - got) in
              let rec pop acc k =
                if k = 0 then acc
                else begin
                  let blk = Machine.read (pd + Vmblk.pd_blkhead) in
                  Machine.write (pd + Vmblk.pd_blkhead)
                    (Machine.read (blk + Freelist.link));
                  Machine.write (blk + Freelist.link) acc;
                  pop blk (k - 1)
                end
              in
              let acc = pop acc take in
              let nfree' = nfree - take in
              Machine.write (pd + Vmblk.pd_nfree) nfree';
              bucket_remove ly ~si ~nfree pd;
              if nfree' > 0 then bucket_insert ly ~si ~nfree:nfree' pd;
              gather acc (got + take)
      in
      let head, got = gather 0 0 in
      st.Kstats.page_block_gets <- st.Kstats.page_block_gets + got;
      (head, got))

let put_chain (ctx : Ctx.t) ~si head =
  let ly = ctx.Ctx.layout in
  let st = Kstats.size ctx.Ctx.stats si in
  let full = bpp ly si in
  Freelist.iter_chain head (fun blk ~next:_ ->
      st.Kstats.page_block_puts <- st.Kstats.page_block_puts + 1;
      let pd = Vmblk.pd_of_block ctx blk in
      (* Host-side checks: a page leaves the split state only when its
         last block comes back, under this size's lock, which we hold. *)
      assert (Machine.peek (pd + Vmblk.pd_state) = Vmblk.st_split);
      assert (Machine.peek (pd + Vmblk.pd_sizeidx) = si);
      let nfree = Machine.read (pd + Vmblk.pd_nfree) in
      Machine.write (blk + Freelist.link)
        (Machine.read (pd + Vmblk.pd_blkhead));
      Machine.write (pd + Vmblk.pd_blkhead) blk;
      let nfree' = nfree + 1 in
      Machine.write (pd + Vmblk.pd_nfree) nfree';
      if nfree > 0 then bucket_remove ly ~si ~nfree pd;
      if nfree' = full then begin
        (* Page fully free: return it at once. *)
        st.Kstats.pages_returned <- st.Kstats.pages_returned + 1;
        let page = Layout.page_of_pd ly ~pd in
        if Trace.on () then
          Trace.emit (Flightrec.Event.Page_return { si; page });
        Vmblk.free_pages ctx ~page ~npages:1
      end
      else bucket_insert ly ~si ~nfree:nfree' pd)

let put_blocks (ctx : Ctx.t) ~si ~head ~count =
  assert (count >= 0);
  if head <> 0 then
    Sim.Spinlock.with_lock ctx.Ctx.plocks.(si) (fun () ->
        put_chain ctx ~si head)

(* --- host-side oracles --- *)

let bucket_pages_oracle (ctx : Ctx.t) ~si =
  let mem = Ctx.memory ctx in
  let ly = ctx.Ctx.layout in
  let rec walk pd acc =
    if pd = 0 then List.rev acc
    else walk (Memory.get mem (pd + Vmblk.pd_next)) (pd :: acc)
  in
  let rec buckets b acc =
    if b > bpp ly si then List.rev acc
    else
      let pages = walk (Memory.get mem (bucket_addr ly ~si ~nfree:b)) [] in
      buckets (b + 1) (if pages = [] then acc else (b, pages) :: acc)
  in
  buckets 1 []

let minhint_oracle (ctx : Ctx.t) ~si =
  Memory.get (Ctx.memory ctx) (minhint_addr ctx.Ctx.layout ~si)

let free_blocks_oracle (ctx : Ctx.t) ~si =
  List.fold_left
    (fun acc (nfree, pages) -> acc + (nfree * List.length pages))
    0
    (bucket_pages_oracle ctx ~si)
