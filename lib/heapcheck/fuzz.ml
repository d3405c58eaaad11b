open Sim

(* Ops are abstract and self-relocating: [Free k] frees the (k mod
   nlive)-th live block of the *replaying* model, so removing earlier
   ops during minimization leaves every remaining op meaningful. *)
type op =
  | Alloc of int
  | Free of int
  | Alloc_large of int
  | Free_large of int
  | Reap of bool
  | Drain of int
  | Fault_on of int
  | Fault_off
  | Corrupt of int

type config = {
  seed : int;
  ops : int;
  check_every : int;
  pressure : bool;
  debug : bool;
  fault_rate : float;
  corrupt : bool;
  ncpus : int;
  memory_words : int;
  vmblk_pages : int;
}

let config ?(ops = 10_000) ?(check_every = 1) ?(pressure = false)
    ?(debug = false) ?(fault_rate = 0.) ?(corrupt = false) ?(ncpus = 1)
    ?(memory_words = 262_144) ?(vmblk_pages = 16) ~seed () =
  if ops < 0 then invalid_arg "Heapcheck.Fuzz.config: ops < 0";
  if check_every < 1 then invalid_arg "Heapcheck.Fuzz.config: check_every < 1";
  {
    seed;
    ops;
    check_every;
    pressure;
    debug;
    fault_rate;
    corrupt;
    ncpus;
    memory_words;
    vmblk_pages;
  }

type failure = { index : int; op : op; problems : string list }

type outcome = {
  checks : int;
  allocs : int;
  frees : int;
  cycles : int;
  failure : failure option;
}

let pp_op ppf = function
  | Alloc n -> Format.fprintf ppf "alloc %d" n
  | Free n -> Format.fprintf ppf "free %d" n
  | Alloc_large n -> Format.fprintf ppf "alloc-large %d" n
  | Free_large n -> Format.fprintf ppf "free-large %d" n
  | Reap full -> Format.fprintf ppf "reap %s" (if full then "full" else "light")
  | Drain n -> Format.fprintf ppf "drain %d" n
  | Fault_on n -> Format.fprintf ppf "fault-on %d" n
  | Fault_off -> Format.pp_print_string ppf "fault-off"
  | Corrupt n -> Format.fprintf ppf "corrupt %d" n

let pp_trace ppf ops =
  List.iteri (fun i op -> Format.fprintf ppf "%4d  %a@." i pp_op op) ops

(* --- generation --- *)

let gen cfg =
  let rng = Prng.create ~seed:cfg.seed in
  let fault_w = if cfg.fault_rate > 0. then 2 else 0 in
  let corrupt_w = if cfg.corrupt then 1 else 0 in
  let choices =
    [|
      (40, `Alloc);
      (32, `Free);
      (4, `Alloc_large);
      (3, `Free_large);
      (2, `Reap_light);
      (1, `Reap_full);
      (2, `Drain);
      (fault_w, `Fault_on);
      (fault_w, `Fault_off);
      (corrupt_w, `Corrupt);
    |]
  in
  List.init cfg.ops (fun _ ->
      match Prng.weighted rng choices with
      | `Alloc -> Alloc (Prng.int rng ~bound:1024)
      | `Free -> Free (Prng.int rng ~bound:1024)
      | `Alloc_large -> Alloc_large (Prng.int rng ~bound:1024)
      | `Free_large -> Free_large (Prng.int rng ~bound:1024)
      | `Reap_light -> Reap false
      | `Reap_full -> Reap true
      | `Drain -> Drain (Prng.int rng ~bound:1024)
      | `Fault_on -> Fault_on (Prng.int rng ~bound:1024)
      | `Fault_off -> Fault_off
      | `Corrupt -> Corrupt (Prng.int rng ~bound:4))

(* --- execution against the reference model --- *)

(* Growable (value, swap-remove) pool for the live sets. *)
module Pool = struct
  type 'a t = { mutable arr : 'a array; mutable n : int; dummy : 'a }

  let create dummy = { arr = Array.make 64 dummy; n = 0; dummy }

  let push t v =
    if t.n = Array.length t.arr then begin
      let bigger = Array.make (2 * t.n) t.dummy in
      Array.blit t.arr 0 bigger 0 t.n;
      t.arr <- bigger
    end;
    t.arr.(t.n) <- v;
    t.n <- t.n + 1

  let take t i =
    let v = t.arr.(i) in
    t.arr.(i) <- t.arr.(t.n - 1);
    t.n <- t.n - 1;
    v
end

(* Deliberate host-side corruptions, for testing the checker and the
   minimizer against a known-broken heap (never generated unless
   [cfg.corrupt]).  Each kind falls back to a per-CPU count-word lie,
   which is always possible. *)
let corrupt (k : Kma.Kmem.t) kind =
  let ctx : Kma.Ctx.t = k in
  let mem = Kma.Ctx.memory ctx in
  let ly = ctx.Kma.Ctx.layout in
  let bump_percpu_count () =
    let pcc = Kma.Layout.pcc_addr ly ~cpu:0 ~si:0 in
    let a = pcc + Kma.Percpu.o_main_cnt in
    Memory.set mem a (Memory.get mem a + 1)
  in
  let first_gbl_list () =
    let rec go si =
      if si >= ly.Kma.Layout.nsizes then None
      else
        match Kma.Global.lists_oracle ctx ~si with
        | (head, cnt) :: _ -> Some (head, cnt)
        | [] -> go (si + 1)
    in
    go 0
  in
  match kind mod 4 with
  | 0 -> (
      (* Lie in a gblfree count word. *)
      match first_gbl_list () with
      | Some (head, cnt) -> Memory.set mem (head + Kma.Freelist.count) (cnt + 1)
      | None -> bump_percpu_count ())
  | 1 -> (
      (* Lie in a split page's pd_nfree. *)
      let rec go si =
        if si >= ly.Kma.Layout.nsizes then None
        else
          match Kma.Pagepool.bucket_pages_oracle ctx ~si with
          | (_, pd :: _) :: _ -> Some pd
          | _ -> go (si + 1)
      in
      match go 0 with
      | Some pd ->
          let a = pd + Kma.Vmblk.pd_nfree in
          Memory.set mem a (Memory.get mem a + 1)
      | None -> bump_percpu_count ())
  | 2 -> (
      (* Orphan a free span's head state. *)
      match Kma.Vmblk.free_spans_oracle ctx with
      | (pd, _) :: _ ->
          Memory.set mem (pd + Kma.Vmblk.pd_state) Kma.Vmblk.st_span_mid
      | [] -> bump_percpu_count ())
  | _ -> (
      (* Tie a per-CPU main chain into a cycle (double insertion). *)
      let rec go cpu si =
        if cpu >= ly.Kma.Layout.ncpus then None
        else if si >= ly.Kma.Layout.nsizes then go (cpu + 1) 0
        else
          let (mh, _), _, _ = Kma.Percpu.cache_oracle ctx ~cpu ~si in
          if mh <> 0 then Some mh else go cpu (si + 1)
      in
      match go 0 0 with
      | Some head -> Memory.set mem (head + Kma.Freelist.link) head
      | None -> bump_percpu_count ())

let execute cfg trace =
  let m =
    Machine.create
      (Config.make ~ncpus:cfg.ncpus ~memory_words:cfg.memory_words
         ~geometry:{ Geometry.default with cache_lines = 0 }
         ())
  in
  let params = Kma.Params.make ~vmblk_pages:cfg.vmblk_pages ~debug:cfg.debug () in
  let k = Kma.Kmem.create m ~params () in
  if cfg.pressure then Kma.Pressure.enable k;
  let p = Kma.Kmem.params k in
  let nsizes = Kma.Params.nsizes p in
  let page_bytes = p.Kma.Params.page_bytes in
  let max_span = max 3 (min 8 (cfg.vmblk_pages / 2)) in
  (* Reference model: the live sets and per-class outstanding counts. *)
  let live = Pool.create (0, 0) in
  let live_set : (int, unit) Hashtbl.t = Hashtbl.create 256 in
  let counts = Array.make nsizes 0 in
  let larges = Pool.create (0, 0) in
  let checks = ref 0 and allocs = ref 0 and frees = ref 0 in
  let failure = ref None in
  let fail idx op problems = failure := Some { index = idx; op; problems } in
  let do_check idx op =
    incr checks;
    let vs = Check.check ~live:counts k in
    if Check.on () then List.iter Check.note vs;
    if vs <> [] then
      fail idx op
        (List.map
           (fun (v : Check.violation) ->
             Check.rule_name v.Check.rule ^ ": " ^ v.Check.detail)
           vs)
  in
  let step idx op =
    match op with
    | Alloc sel ->
        let si = sel mod nsizes in
        let a = Kma.Kmem.alloc_class k ~si in
        if a <> 0 then begin
          if Hashtbl.mem live_set a then
            fail idx op
              [ Printf.sprintf "model: allocator handed out live block %d" a ]
          else begin
            Pool.push live (a, si);
            Hashtbl.add live_set a ();
            counts.(si) <- counts.(si) + 1;
            incr allocs
          end
        end
    | Free sel ->
        if live.Pool.n > 0 then begin
          let a, si = Pool.take live (sel mod live.Pool.n) in
          Hashtbl.remove live_set a;
          counts.(si) <- counts.(si) - 1;
          Kma.Percpu.free k ~si a;
          incr frees
        end
    | Alloc_large sel -> (
        let npages = 2 + (sel mod (max_span - 1)) in
        let bytes = npages * page_bytes in
        match Kma.Kmem.try_alloc k ~bytes with
        | Some a -> Pool.push larges (a, bytes)
        | None -> ())
    | Free_large sel ->
        if larges.Pool.n > 0 then begin
          let a, bytes = Pool.take larges (sel mod larges.Pool.n) in
          Kma.Kmem.free k ~addr:a ~bytes
        end
    | Reap full -> ignore (Kma.Pressure.reap k ~full : int)
    | Drain sel -> Kma.Percpu.drain k ~si:(sel mod nsizes)
    | Fault_on sel ->
        Vmsys.set_fault_rate (Kma.Kmem.vmsys k) ~seed:(cfg.seed lxor sel)
          cfg.fault_rate
    | Fault_off -> Vmsys.set_fault_rate (Kma.Kmem.vmsys k) 0.
    | Corrupt kind -> corrupt k kind
  in
  (* One simulated CPU executes the whole trace; the host code between
     its operations (where the checks run) is atomic, so every check
     lands at a quiescent point. *)
  Machine.run m
    [|
      (fun _ ->
        let rec go idx last = function
          | [] ->
              (* In sweep mode, always close with a final check so a
                 violation planted after the last multiple of
                 [check_every] cannot escape. *)
              if cfg.check_every > 1 && !failure = None then (
                match last with
                | Some op -> do_check (idx - 1) op
                | None -> ())
          | op :: rest ->
              step idx op;
              if
                !failure = None
                && (idx + 1) mod cfg.check_every = 0
              then do_check idx op;
              if !failure = None then go (idx + 1) (Some op) rest
        in
        go 0 None trace);
    |];
  {
    checks = !checks;
    allocs = !allocs;
    frees = !frees;
    cycles = Machine.elapsed m;
    failure = !failure;
  }

(* --- greedy trace minimization --- *)

let fails cfg trace = (execute cfg trace).failure <> None

(* Truncate to the failure point, then greedily delete chunks (halving
   the chunk size down to 1) as long as the trace still fails.  Purely
   deterministic: same config + trace in, same minimized trace out. *)
let minimize cfg trace =
  match (execute cfg trace).failure with
  | None -> trace
  | Some f ->
      let trace = List.filteri (fun i _ -> i <= f.index) trace in
      let rec shrink chunk trace =
        if chunk < 1 then trace
        else begin
          let rec pass pos trace =
            if pos >= List.length trace then trace
            else
              let cand =
                List.filteri (fun i _ -> i < pos || i >= pos + chunk) trace
              in
              if List.length cand < List.length trace && fails cfg cand then
                pass pos cand
              else pass (pos + chunk) trace
          in
          shrink (chunk / 2) (pass 0 trace)
        end
      in
      shrink (max 1 ((List.length trace + 1) / 2)) trace
