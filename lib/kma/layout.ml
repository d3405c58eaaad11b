type t = {
  params : Params.t;
  ncpus : int;
  nnodes : int;
  nsizes : int;
  line_words : int;
  page_words : int;
  page_shift : int;
  size_table_base : int;
  size_table_len : int;
  size_table_gran_shift : int;
  percpu_base : int;
  pcc_words : int;
  global_base : int;
  gbl_words : int;
  pagepool_bases : int array;
  vmctl_base : int;
  dope_base : int;
  dope_len : int;
  vmblk_base : int;
  vmblk_words : int;
  vmblk_shift : int;
  vmblk_pages : int;
  hdr_pages : int;
  data_pages : int;
  arena_vmblks : int;
  pd_words : int;
  control_words : int;
}

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let round_up v align = (v + align - 1) / align * align

let make (cfg : Sim.Config.t) (p : Params.t) =
  Params.validate p;
  let nsizes = Params.nsizes p in
  let page_words = Params.page_words p in
  let page_shift = log2 page_words in
  let line = cfg.Sim.Config.line_words in
  let pd_words = 8 in
  let pcc_words = round_up 16 line in
  let gbl_words = round_up 24 line in
  let cursor = ref 1024 in
  let take words =
    let base = !cursor in
    cursor := base + words;
    base
  in
  let align_to a = cursor := round_up !cursor a in
  (* Size-to-index table: one entry per granule of the smallest size. *)
  let gran = p.Params.sizes_bytes.(0) in
  let size_table_gran_shift = log2 gran in
  let max_bytes = p.Params.sizes_bytes.(nsizes - 1) in
  let size_table_len = max_bytes / gran in
  align_to line;
  let size_table_base = take size_table_len in
  (* Per-CPU caches: cache-line isolated per (cpu, size). *)
  align_to line;
  let percpu_base = take (cfg.Sim.Config.ncpus * nsizes * pcc_words) in
  (* Global layer records: one per (node, size).  The flat machine has
     one node, so its layout is unchanged; on a NUMA machine the extra
     records exist whether or not the per-node global layer is enabled
     (the flat layer simply only ever touches node 0's). *)
  align_to line;
  let global_base = take (cfg.Sim.Config.nodes * nsizes * gbl_words) in
  (* Coalesce-to-page radix structures: lock line, minhint, then one list
     head per possible free count (1 .. blocks_per_page). *)
  let pagepool_bases =
    Array.init nsizes (fun si ->
        align_to line;
        let bpp = Params.blocks_per_page p si in
        take (round_up (line + 1 + bpp) line))
  in
  (* vmblk-layer control. *)
  align_to line;
  let vmctl_base = take (2 * line) in
  (* Dope vector: covers the entire address space. *)
  let vmblk_pages = p.Params.vmblk_pages in
  let vmblk_words = vmblk_pages * page_words in
  let vmblk_shift = page_shift + log2 vmblk_pages in
  let dope_len = (cfg.Sim.Config.memory_words + vmblk_words - 1) lsr vmblk_shift in
  align_to line;
  let dope_base = take dope_len in
  let control_words = !cursor in
  (* Arena: vmblk-aligned so dope indexing is a shift. *)
  let vmblk_base = round_up control_words vmblk_words in
  let arena_vmblks = (cfg.Sim.Config.memory_words - vmblk_base) / vmblk_words in
  if arena_vmblks < 1 then
    invalid_arg
      (Printf.sprintf
         "Kma.Layout: memory too small (%d words; control ends at %d, need \
          one %d-word vmblk)"
         cfg.Sim.Config.memory_words control_words vmblk_words);
  (* Page-descriptor header: descriptors for data pages live at the start
     of each vmblk. *)
  let hdr_pages =
    (vmblk_pages * pd_words + page_words - 1) / page_words
  in
  let data_pages = vmblk_pages - hdr_pages in
  if data_pages < 1 then invalid_arg "Kma.Layout: vmblk too small for header";
  {
    params = p;
    ncpus = cfg.Sim.Config.ncpus;
    nnodes = cfg.Sim.Config.nodes;
    nsizes;
    line_words = line;
    page_words;
    page_shift;
    size_table_base;
    size_table_len;
    size_table_gran_shift;
    percpu_base;
    pcc_words;
    global_base;
    gbl_words;
    pagepool_bases;
    vmctl_base;
    dope_base;
    dope_len;
    vmblk_base;
    vmblk_words;
    vmblk_shift;
    vmblk_pages;
    hdr_pages;
    data_pages;
    arena_vmblks;
    pd_words;
    control_words;
  }

let pcc_addr t ~cpu ~si =
  t.percpu_base + (((cpu * t.nsizes) + si) * t.pcc_words)

let gbl_node_addr t ~node ~si =
  t.global_base + (((node * t.nsizes) + si) * t.gbl_words)

let pagepool_addr t ~si = t.pagepool_bases.(si)
let vmblk_addr t ~index = t.vmblk_base + (index * t.vmblk_words)
let vmblk_of_addr t a = a land lnot (t.vmblk_words - 1)
let dope_entry t a = t.dope_base + (a lsr t.vmblk_shift)
let pd_addr t ~vmblk ~data_page = vmblk + (data_page * t.pd_words)

let pd_of_page t ~page_addr =
  let vb = vmblk_of_addr t page_addr in
  let page_index = (page_addr - vb) lsr t.page_shift in
  pd_addr t ~vmblk:vb ~data_page:(page_index - t.hdr_pages)

let page_of_pd t ~pd =
  let vb = vmblk_of_addr t pd in
  let d = (pd - vb) / t.pd_words in
  vb + ((t.hdr_pages + d) lsl t.page_shift)

let data_page_addr t ~vmblk ~data_page =
  vmblk + ((t.hdr_pages + data_page) lsl t.page_shift)

let total_data_pages t = t.arena_vmblks * t.data_pages
