type t = {
  name : string;
  alloc : bytes:int -> int;
  free : addr:int -> bytes:int -> unit;
}

type which =
  | Cookie
  | Newkma
  | Numakma
  | Mk
  | Oldkma
  | Lazybuddy
  | Nbbuddy
  | Bwfixed

let all = [ Cookie; Newkma; Mk; Oldkma ]
let extras = [ Numakma; Lazybuddy; Nbbuddy; Bwfixed ]
let lockfree = [ Nbbuddy; Bwfixed ]

let name_of = function
  | Cookie -> "cookie"
  | Newkma -> "newkma"
  | Numakma -> "numakma"
  | Mk -> "mk"
  | Oldkma -> "oldkma"
  | Lazybuddy -> "lazybuddy"
  | Nbbuddy -> "nbbuddy"
  | Bwfixed -> "bwfixed"

let max_bytes = function
  | Mk | Lazybuddy | Nbbuddy | Bwfixed -> Some 4096
  | Cookie | Newkma | Numakma | Oldkma -> None

let roster = List.map name_of (all @ extras)
let roster_string = String.concat ", " roster

(* A kmem-backed arm.  With [cookie], each size class's cookie is
   resolved once, host-side: the paper's compile-time-size usage. *)
let of_kmem ?(cookie = false) kmem =
  let cookie_for =
    if not cookie then fun _ -> None
    else
      let p = Kma.Kmem.params kmem in
      let cookies =
        Array.map
          (fun bytes -> Kma.Cookie.of_bytes_host kmem ~bytes)
          p.Kma.Params.sizes_bytes
      in
      fun bytes ->
        Option.map (Array.get cookies) (Kma.Params.size_index_of_bytes p bytes)
  in
  {
    name =
      (if cookie then "cookie"
       else if kmem.Kma.Ctx.numa_global then "numakma"
       else "newkma");
    alloc =
      (fun ~bytes ->
        let a =
          match cookie_for bytes with
          | Some c -> Kma.Cookie.try_alloc kmem c
          | None -> Kma.Kmem.try_alloc kmem ~bytes
        in
        Option.value a ~default:0);
    free =
      (fun ~addr ~bytes ->
        match cookie_for bytes with
        | Some c -> Kma.Cookie.free kmem c addr
        | None -> Kma.Kmem.free kmem ~addr ~bytes);
  }

let boot ?numa_global machine =
  Kma.Kmem.create machine ?numa_global
    ~params:
      (Kma.Params.auto
         ~memory_words:(Sim.Machine.config machine).Sim.Config.memory_words)
    ()

let create_mk machine =
  let mk = Mk.create machine in
  {
    name = "mk";
    alloc = (fun ~bytes -> Mk.alloc mk ~bytes);
    free = (fun ~addr ~bytes -> Mk.free_sized mk ~addr ~bytes);
  }

let create_oldkma machine =
  let o = Oldkma.create machine in
  {
    name = "oldkma";
    alloc = (fun ~bytes -> Oldkma.alloc o ~bytes);
    free = (fun ~addr ~bytes -> Oldkma.free_sized o ~addr ~bytes);
  }

let create_lazybuddy machine =
  let b = Lazybuddy.create machine in
  {
    name = "lazybuddy";
    alloc = (fun ~bytes -> Lazybuddy.alloc b ~bytes);
    free = (fun ~addr ~bytes -> Lazybuddy.free b ~addr ~bytes);
  }

type probe = {
  stats : Lockfree.Stats.t option;
  drained : (unit -> string option) option;
  kmem : Kma.Kmem.t option;
}

let unprobed = { stats = None; drained = None; kmem = None }

let kmem_arm ~cookie kmem =
  (of_kmem ~cookie kmem, { unprobed with kmem = Some kmem })

let create_nbbuddy machine =
  let b = Lockfree.Nbbuddy.create machine in
  ( {
      name = "nbbuddy";
      alloc = (fun ~bytes -> Lockfree.Nbbuddy.alloc b ~bytes);
      free = (fun ~addr ~bytes -> Lockfree.Nbbuddy.free b ~addr ~bytes);
    },
    {
      unprobed with
      stats = Some (Lockfree.Nbbuddy.stats b);
      drained =
        Some
          (fun () ->
            match Lockfree.Nbbuddy.invariant_oracle b with
            | Some _ as err -> err
            | None ->
                let words = Lockfree.Nbbuddy.allocated_words_oracle b in
                if words <> 0 then
                  Some (Printf.sprintf "%d words still allocated" words)
                else None);
    } )

let create_bwfixed machine =
  let b = Lockfree.Bwfixed.create machine in
  ( {
      name = "bwfixed";
      alloc = (fun ~bytes -> Lockfree.Bwfixed.alloc b ~bytes);
      free = (fun ~addr ~bytes -> Lockfree.Bwfixed.free b ~addr ~bytes);
    },
    {
      unprobed with
      stats = Some (Lockfree.Bwfixed.stats b);
      drained =
        Some
          (fun () ->
            let rec go c =
              if c > 8 then None
              else
                let total = Lockfree.Bwfixed.blocks_of_class b ~c in
                let free = Lockfree.Bwfixed.free_blocks_oracle b ~c in
                if free <> total then
                  Some
                    (Printf.sprintf "class %d: %d of %d blocks free" c free
                       total)
                else go (c + 1)
            in
            go 0);
    } )

let create_probed which machine =
  match which with
  | Cookie -> kmem_arm ~cookie:true (boot machine)
  | Newkma -> kmem_arm ~cookie:false (boot machine)
  | Numakma -> kmem_arm ~cookie:false (boot ~numa_global:true machine)
  | Mk -> (create_mk machine, unprobed)
  | Oldkma -> (create_oldkma machine, unprobed)
  | Lazybuddy -> (create_lazybuddy machine, unprobed)
  | Nbbuddy -> create_nbbuddy machine
  | Bwfixed -> create_bwfixed machine

let create which machine = fst (create_probed which machine)
