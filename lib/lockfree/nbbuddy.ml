open Sim

(* Non-blocking buddy system over a flat tree of per-block status words,
   after Marotta et al. (PAPERS.md).

   The arena is 2^d leaves of 16 B (4 words).  A complete binary tree
   over the leaves is stored flat in heap order (root = 1, children of i
   at 2i and 2i+1); node i at level l covers a block of 4 * 2^(d-l)
   words.  Each node has one status word:

     bit 0  FULL   the block is allocated at exactly this node
     bit 1  LEFT   some allocation lives in the left child's subtree
     bit 2  RIGHT  some allocation lives in the right child's subtree

   A block is free as a whole iff its status word is 0, so splitting and
   coalescing are implicit: claiming a node IS the split, and freeing the
   last descendant of a node makes the whole bigger block claimable with
   no merge step.

   Allocation at a node CASes its status 0 -> FULL, then ascends to the
   4096-byte level (the chunk level; nothing larger is ever allocated,
   exactly like the lock-based arms) atomically ORing the per-child
   occupancy bit into each ancestor.  Meeting a FULL ancestor means the
   claim overlapped an allocated bigger block: the claim is rolled back
   (conflict) and the scan moves on.  Freeing ANDs FULL off and ascends
   clearing occupancy bits, but only while the child's subtree reads
   free, rechecking after each clear and re-setting the bit (helping) if
   an allocation slipped in.  Both ascents are self-repairing: a
   successful claim always re-asserts its whole path, and any clearer
   rechecks, so at quiescence a bit is set iff the child subtree holds an
   allocation (the invariant the host oracle checks).

   Per-CPU, per-class scan hints (private cache lines) give the
   hot-path locality: an alloc/free pair re-claims the node it just
   released, so the steady-state cost is one read, one CAS and a short
   RMW ascent over lines this CPU already owns. *)

let leaf_words = 4
let nclasses = 9 (* 16 B .. 4096 B *)
let sizes_bytes = Array.init nclasses (fun c -> 16 lsl c)
let words_of c = leaf_words lsl c
let chunk_words = words_of (nclasses - 1)

let full = 1
let w_alloc = 10
let w_free = 10

type t = {
  machine : Machine.t;
  stats : Stats.t;
  depth : int; (* leaves = 2^depth *)
  top_level : int; (* chunk (4096 B) level: depth - 8 *)
  hints_base : int;
  hint_stride : int; (* words per CPU *)
  tree_base : int;
  arena : int;
  arena_end : int;
}

let child_bit j = if j land 1 = 0 then 2 else 4

let node t i = t.tree_base + i

let level_of_class t c = t.depth - c

let addr_of t i ~level = t.arena + ((i - (1 lsl level)) * (leaf_words lsl (t.depth - level)))

let node_of t addr ~c =
  (1 lsl level_of_class t c) + ((addr - t.arena) / words_of c)

let hint_addr t ~cpu ~c = t.hints_base + (cpu * t.hint_stride) + c

let create machine =
  let cfg = Machine.config machine in
  let mem = Machine.memory machine in
  let line = cfg.Config.geometry.line_words in
  let round_line x = (x + line - 1) / line * line in
  let ncpus = cfg.Config.ncpus in
  let hints_base = round_line 1024 in
  let hint_stride = round_line nclasses in
  let tree_base = round_line (hints_base + (ncpus * hint_stride)) in
  let mem_end = cfg.Config.memory_words - cfg.Config.uncached_words in
  (* Largest power-of-two leaf count whose tree + arena fit. *)
  let rec pick d =
    if d < 8 then invalid_arg "Lockfree.Nbbuddy.create: memory too small"
    else
      let n = 1 lsl d in
      let arena =
        (tree_base + (2 * n) + chunk_words - 1) / chunk_words * chunk_words
      in
      if arena + (n * leaf_words) <= mem_end then (d, arena) else pick (d - 1)
  in
  let depth, arena = pick 24 in
  let n = 1 lsl depth in
  let t =
    {
      machine;
      stats = Stats.create ();
      depth;
      top_level = depth - 8;
      hints_base;
      hint_stride;
      tree_base;
      arena;
      arena_end = arena + (n * leaf_words);
    }
  in
  (* Boot host-side: zero the tree, spread each CPU's scan hints across
     its class row so concurrent CPUs don't fight over the same lines
     from the first allocation. *)
  for i = 1 to (2 * n) - 1 do
    Memory.set mem (node t i) 0
  done;
  for cpu = 0 to ncpus - 1 do
    for c = 0 to nclasses - 1 do
      let row_len = 1 lsl level_of_class t c in
      Memory.set mem (hint_addr t ~cpu ~c) (cpu * row_len / ncpus)
    done
  done;
  t

let class_of bytes =
  if bytes <= 0 then invalid_arg "Lockfree.Nbbuddy: bytes <= 0"
  else
    let rec go c =
      if c >= nclasses then None
      else if sizes_bytes.(c) >= bytes then Some c
      else go (c + 1)
    in
    go 0

(* Clear occupancy bits upward from [j] (whose subtree this op just made
   free, or tried to occupy and rolled back) towards the chunk level.
   At each step: only proceed while the child's subtree reads free;
   after clearing the bit, recheck and repair (help) if an allocation
   slipped into the window.  Used by both [free] and conflict rollback —
   a rolled-back claim keeps clearing upward past its conflict point so
   that a concurrent free which deferred to our transient marks is not
   left with a stale bit. *)
let unmark t j ~level =
  let st = t.stats in
  let j = ref j and lv = ref level in
  let stop = ref false in
  while (not !stop) && !lv > t.top_level do
    if Machine.read (node t !j) <> 0 then stop := true
    else begin
      let parent = !j lsr 1 in
      let bit = child_bit !j in
      st.Stats.mark_rmws <- st.Stats.mark_rmws + 1;
      ignore (Machine.fetch_and (node t parent) (lnot bit));
      if Machine.read (node t !j) <> 0 then begin
        (* someone occupied the subtree between the read and the clear:
           put the bit back on their behalf and stop *)
        st.Stats.helps <- st.Stats.helps + 1;
        st.Stats.mark_rmws <- st.Stats.mark_rmws + 1;
        ignore (Machine.fetch_or (node t parent) bit);
        stop := true
      end
      else begin
        j := parent;
        decr lv
      end
    end
  done

(* Mark the path from [i] up to the chunk level as occupied.  Returns
   false (after rolling the claim back) if an ancestor is FULL: the
   claim overlapped a live bigger block. *)
let mark t i ~level =
  let st = t.stats in
  let j = ref i and lv = ref level in
  let conflict = ref false in
  while (not !conflict) && !lv > t.top_level do
    let parent = !j lsr 1 in
    let bit = child_bit !j in
    st.Stats.mark_rmws <- st.Stats.mark_rmws + 1;
    let old = Machine.fetch_or (node t parent) bit in
    if old land full <> 0 then conflict := true
    else begin
      j := parent;
      decr lv
    end
  done;
  if !conflict then begin
    st.Stats.conflicts <- st.Stats.conflicts + 1;
    st.Stats.mark_rmws <- st.Stats.mark_rmws + 1;
    ignore (Machine.fetch_and (node t i) (lnot full));
    unmark t i ~level;
    false
  end
  else true

let alloc t ~bytes =
  match class_of bytes with
  | None -> 0
  | Some c ->
      Machine.work w_alloc;
      let st = t.stats in
      let level = level_of_class t c in
      let row_start = 1 lsl level in
      let row_len = 1 lsl level in
      let ha = hint_addr t ~cpu:(Machine.cpu_id ()) ~c in
      let h = Machine.read ha land (row_len - 1) in
      let result = ref 0 in
      let off = ref 0 in
      while !result = 0 && !off < row_len do
        let rel = (h + !off) land (row_len - 1) in
        let i = row_start + rel in
        if Machine.read (node t i) = 0 then begin
          st.Stats.cas_attempts <- st.Stats.cas_attempts + 1;
          let w = Machine.cas_val (node t i) ~expected:0 ~desired:full in
          if w <> 0 then st.Stats.cas_failures <- st.Stats.cas_failures + 1
          else if mark t i ~level then begin
            Machine.write ha rel;
            result := addr_of t i ~level
          end
        end;
        incr off
      done;
      !result

let free t ~addr ~bytes =
  match class_of bytes with
  | None -> invalid_arg "Lockfree.Nbbuddy.free: bad size"
  | Some c ->
      if addr < t.arena || addr >= t.arena_end then
        invalid_arg "Lockfree.Nbbuddy.free: bad address";
      Machine.work w_free;
      let st = t.stats in
      let level = level_of_class t c in
      let i = node_of t addr ~c in
      st.Stats.mark_rmws <- st.Stats.mark_rmws + 1;
      ignore (Machine.fetch_and (node t i) (lnot full));
      unmark t i ~level

let stats t = t.stats

(* --- host-side oracles (uncharged) --- *)

let arena_words_oracle t = t.arena_end - t.arena

let allocated_words_oracle t =
  let mem = Machine.memory t.machine in
  let total = ref 0 in
  for lv = t.top_level to t.depth do
    let w = leaf_words lsl (t.depth - lv) in
    for i = 1 lsl lv to (1 lsl (lv + 1)) - 1 do
      if Memory.get mem (node t i) land full <> 0 then total := !total + w
    done
  done;
  !total

let invariant_oracle t =
  let mem = Machine.memory t.machine in
  let status i = Memory.get mem (node t i) in
  (* subtree_full i lv: does the subtree rooted at i (level lv) contain
     a FULL node at an allocatable level? *)
  let rec subtree_full i lv =
    if lv > t.depth then false
    else if lv >= t.top_level && status i land full <> 0 then true
    else if lv = t.depth then false
    else subtree_full (2 * i) (lv + 1) || subtree_full ((2 * i) + 1) (lv + 1)
  in
  let err = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !err = None then err := Some s) fmt in
  (* 1. no FULL node below another FULL node (overlap freedom) *)
  let rec overlap i lv under =
    if lv <= t.depth then begin
      let f = lv >= t.top_level && status i land full <> 0 in
      if f && under then fail "node %d: FULL under a FULL ancestor" i;
      if lv < t.depth then begin
        overlap (2 * i) (lv + 1) (under || f);
        overlap ((2 * i) + 1) (lv + 1) (under || f)
      end
    end
  in
  for r = 1 lsl t.top_level to (1 lsl (t.top_level + 1)) - 1 do
    overlap r t.top_level false
  done;
  (* 2. occupancy bits match subtree contents at quiescence *)
  for lv = t.top_level to t.depth - 1 do
    for i = 1 lsl lv to (1 lsl (lv + 1)) - 1 do
      let s = status i in
      if s land full = 0 then begin
        let want_l = subtree_full (2 * i) (lv + 1) in
        let want_r = subtree_full ((2 * i) + 1) (lv + 1) in
        if s land 2 <> 0 <> want_l then
          fail "node %d (level %d): LEFT bit %b, subtree %b" i lv
            (s land 2 <> 0) want_l;
        if s land 4 <> 0 <> want_r then
          fail "node %d (level %d): RIGHT bit %b, subtree %b" i lv
            (s land 4 <> 0) want_r
      end
    done
  done;
  !err
