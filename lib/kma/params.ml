type page_policy = Fullest_first | Emptiest_first

type t = {
  sizes_bytes : int array;
  page_bytes : int;
  vmblk_pages : int;
  targets : int array;
  gbltargets : int array;
  phys_pages : int option;
  page_policy : page_policy;
  debug : bool;
}

let bytes_per_word = 4

(* Debug-kernel poison pattern (see the [debug] field). *)
let debug_poison = 0x2EADBEEF
let is_power_of_two n = n > 0 && n land (n - 1) = 0

let default_target ~bytes = Int.max 2 (Int.min 10 (4096 / bytes))
let default_gbltarget ~target = Int.max 2 (3 * target / 2)

let default_sizes = [| 16; 32; 64; 128; 256; 512; 1024; 2048; 4096 |]

let derive_targets sizes = Array.map (fun b -> default_target ~bytes:b) sizes

let derive_gbltargets targets =
  Array.map (fun t -> default_gbltarget ~target:t) targets

let validate t =
  let check cond msg = if not cond then invalid_arg ("Kma.Params: " ^ msg) in
  let n = Array.length t.sizes_bytes in
  check (n > 0) "sizes_bytes must be non-empty";
  Array.iter
    (fun s ->
      check (is_power_of_two s) "sizes must be powers of two";
      check (s >= 2 * bytes_per_word) "sizes must hold at least two words")
    t.sizes_bytes;
  for i = 1 to n - 1 do
    check (t.sizes_bytes.(i) > t.sizes_bytes.(i - 1)) "sizes must ascend"
  done;
  check (is_power_of_two t.page_bytes) "page_bytes must be a power of two";
  check
    (t.sizes_bytes.(n - 1) = t.page_bytes)
    "largest size must equal page_bytes";
  check (is_power_of_two t.vmblk_pages) "vmblk_pages must be a power of two";
  check (t.vmblk_pages >= 8) "vmblk_pages must be at least 8";
  check (Array.length t.targets = n) "targets length";
  check (Array.length t.gbltargets = n) "gbltargets length";
  Array.iter (fun x -> check (x >= 1) "targets must be >= 1") t.targets;
  Array.iter (fun x -> check (x >= 1) "gbltargets must be >= 1") t.gbltargets;
  (match t.phys_pages with
  | Some p -> check (p > 0) "phys_pages must be positive"
  | None -> ())

let default =
  let targets = derive_targets default_sizes in
  {
    sizes_bytes = default_sizes;
    page_bytes = 4096;
    vmblk_pages = 1024;
    targets;
    gbltargets = derive_gbltargets targets;
    phys_pages = None;
    page_policy = Fullest_first;
    debug = false;
  }

let small = { default with vmblk_pages = 64 }

let auto ~memory_words =
  let page_words = default.page_bytes / bytes_per_word in
  let avail_pages = memory_words / page_words in
  (* Aim for at least four vmblks so growth and the dope vector are
     exercised; keep the paper's 4 MB (1024-page) vmblks when memory is
     plentiful. *)
  let rec fit p = if p * 4 <= avail_pages || p <= 8 then p else fit (p / 2) in
  { default with vmblk_pages = Int.min 1024 (fit 1024) }

let make ?sizes_bytes ?page_bytes ?vmblk_pages ?targets ?gbltargets
    ?phys_pages ?(page_policy = Fullest_first) ?(debug = false) () =
  let sizes_bytes = Option.value sizes_bytes ~default:default.sizes_bytes in
  let targets =
    match targets with Some t -> t | None -> derive_targets sizes_bytes
  in
  let gbltargets =
    match gbltargets with
    | Some g -> g
    | None -> derive_gbltargets targets
  in
  let t =
    {
      sizes_bytes;
      page_bytes = Option.value page_bytes ~default:default.page_bytes;
      vmblk_pages = Option.value vmblk_pages ~default:default.vmblk_pages;
      targets;
      gbltargets;
      phys_pages;
      page_policy;
      debug;
    }
  in
  validate t;
  t

let nsizes t = Array.length t.sizes_bytes
let page_words t = t.page_bytes / bytes_per_word
let size_words t si = t.sizes_bytes.(si) / bytes_per_word
let blocks_per_page t si = t.page_bytes / t.sizes_bytes.(si)

let size_index_of_bytes t bytes =
  if bytes <= 0 then None
  else
    let n = Array.length t.sizes_bytes in
    let rec go i =
      if i >= n then None
      else if bytes <= t.sizes_bytes.(i) then Some i
      else go (i + 1)
    in
    go 0
