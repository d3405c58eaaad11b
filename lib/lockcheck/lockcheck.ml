(* Host-side lockdep-style checker.  See lockcheck.mli for the three
   invariants and the zero-perturbation contract; everything here is
   ordinary OCaml state keyed by simulated lock addresses and CPU ids —
   no simulator operation is ever performed. *)

exception Violation of string

type rule = Lock_order | Irq_discipline | Vm_hold

let rule_name = function
  | Lock_order -> "lock-order"
  | Irq_discipline -> "irq-discipline"
  | Vm_hold -> "vm-hold"

type lock_info = {
  addr : int;
  mutable name : string;
  mutable cls : string;
  mutable vm_safe : bool;
  mutable acquires : int;
}

(* First-seen provenance of a class-order edge, kept so a cycle report
   can show where the opposite edge was established. *)
type edge = {
  e_src : string;
  e_dst : string;
  e_cpu : int;
  e_time : int;
  e_stack : string;
}

type held = {
  h_addr : int;
  h_cls : string;
  h_name : string;
  h_time : int;
  h_stack : string;
}

type t = {
  abort : bool;
  locks : (int, lock_info) Hashtbl.t; (* addr -> info *)
  edges : (string * string, edge) Hashtbl.t; (* (src cls, dst cls) *)
  succ : (string, string list) Hashtbl.t; (* cls -> successor classes *)
  held : (int, held list) Hashtbl.t; (* cpu -> innermost-first stack *)
  mutable max_depth : int;
  mutable n_order_checks : int;
  mutable n_irq_checks : int;
  mutable n_vm_checks : int;
  mutable viols : (rule * string) list; (* newest first *)
}

let state : t option ref = ref None
let on () = !state <> None

let enable ?(abort = true) () =
  state :=
    Some
      {
        abort;
        locks = Hashtbl.create 64;
        edges = Hashtbl.create 64;
        succ = Hashtbl.create 64;
        held = Hashtbl.create 8;
        max_depth = 0;
        n_order_checks = 0;
        n_irq_checks = 0;
        n_vm_checks = 0;
        viols = [];
      }

let disable () = state := None

let backtrace () =
  (* Skip the two innermost frames: this helper and the hook itself. *)
  let raw = Printexc.raw_backtrace_to_string (Printexc.get_callstack 16) in
  match String.split_on_char '\n' raw with
  | _ :: _ :: rest -> String.concat "\n" rest
  | _ -> raw

let lock_info t ~addr =
  match Hashtbl.find_opt t.locks addr with
  | Some i -> i
  | None ->
      let name = Printf.sprintf "lock@%d" addr in
      let i = { addr; name; cls = name; vm_safe = false; acquires = 0 } in
      Hashtbl.add t.locks addr i;
      i

let register_lock ~addr ~name ?cls ?(vm_safe = false) () =
  match !state with
  | None -> ()
  | Some t ->
      let i = lock_info t ~addr in
      i.name <- name;
      i.cls <- Option.value cls ~default:name;
      i.vm_safe <- vm_safe

let violate t ~rule ~cpu ~time msg =
  let msg =
    Printf.sprintf "lockcheck: %s violation (cpu %d, t=%d): %s"
      (rule_name rule) cpu time msg
  in
  t.viols <- (rule, msg) :: t.viols;
  if Flightrec.Recorder.on () then
    Flightrec.Recorder.emit ~cpu ~time
      (Flightrec.Event.Lockcheck_violation { rule = rule_name rule });
  if t.abort then raise (Violation msg)

(* Is [dst] reachable from [src] in the order graph?  Plain DFS over
   the class successor lists; graphs here are tiny (a handful of
   classes), so no need for anything cleverer. *)
let reachable t ~src ~dst =
  let visited = Hashtbl.create 8 in
  let rec go c =
    c = dst
    || (not (Hashtbl.mem visited c))
       && begin
            Hashtbl.add visited c ();
            List.exists go
              (Option.value (Hashtbl.find_opt t.succ c) ~default:[])
          end
  in
  go src

let path t ~src ~dst =
  let visited = Hashtbl.create 8 in
  let rec go c acc =
    if c = dst then Some (List.rev (c :: acc))
    else if Hashtbl.mem visited c then None
    else begin
      Hashtbl.add visited c ();
      List.find_map
        (fun n -> go n (c :: acc))
        (Option.value (Hashtbl.find_opt t.succ c) ~default:[])
    end
  in
  Option.value (go src []) ~default:[ src; dst ]

let add_edge t ~src ~dst ~cpu ~time ~stack =
  if not (Hashtbl.mem t.edges (src, dst)) then begin
    Hashtbl.add t.edges (src, dst)
      { e_src = src; e_dst = dst; e_cpu = cpu; e_time = time; e_stack = stack };
    Hashtbl.replace t.succ src
      (dst :: Option.value (Hashtbl.find_opt t.succ src) ~default:[])
  end

let acquire ~cpu ~time ~addr =
  match !state with
  | None -> ()
  | Some t ->
      t.n_order_checks <- t.n_order_checks + 1;
      let i = lock_info t ~addr in
      i.acquires <- i.acquires + 1;
      let stack = backtrace () in
      let held = Option.value (Hashtbl.find_opt t.held cpu) ~default:[] in
      (* Recursion / same-class nesting: lockdep treats both as errors
         (a second instance of the same class may be the same lock on
         another path). *)
      List.iter
        (fun h ->
          if h.h_addr = addr then
            violate t ~rule:Lock_order ~cpu ~time
              (Printf.sprintf "recursive acquisition of %s (first taken t=%d)"
                 i.name h.h_time)
          else if h.h_cls = i.cls then
            violate t ~rule:Lock_order ~cpu ~time
              (Printf.sprintf
                 "%s acquired while %s of the same class [%s] is held"
                 i.name h.h_name i.cls))
        held;
      (* Order edges: every held lock's class precedes the new class.
         A pre-existing path new-class ->* held-class means adding the
         edge held-class -> new-class would close a cycle: the classic
         ABBA, caught from one benign run. *)
      List.iter
        (fun h ->
          if h.h_cls <> i.cls then
            if reachable t ~src:i.cls ~dst:h.h_cls then begin
              let cyc =
                String.concat " -> "
                  (List.map
                     (Printf.sprintf "[%s]")
                     (path t ~src:i.cls ~dst:h.h_cls @ [ i.cls ]))
              in
              let prov =
                match Hashtbl.find_opt t.edges (i.cls, h.h_cls) with
                | Some e ->
                    Printf.sprintf
                      "\n  opposite order [%s] -> [%s] first recorded on \
                       cpu %d at t=%d, acquired at:\n\
                       %s"
                      e.e_src e.e_dst e.e_cpu e.e_time e.e_stack
                | None -> ""
              in
              violate t ~rule:Lock_order ~cpu ~time
                (Printf.sprintf
                   "%s acquired while %s held closes order cycle %s\n\
                   \  %s was acquired at t=%d at:\n\
                    %s\n\
                   \  %s acquired at:\n\
                    %s%s"
                   i.name h.h_name cyc h.h_name h.h_time h.h_stack i.name
                   stack prov)
            end
            else add_edge t ~src:h.h_cls ~dst:i.cls ~cpu ~time ~stack)
        held;
      let entry =
        { h_addr = addr; h_cls = i.cls; h_name = i.name; h_time = time;
          h_stack = stack }
      in
      let held = entry :: held in
      Hashtbl.replace t.held cpu held;
      if List.length held > t.max_depth then
        t.max_depth <- List.length held

let release ~cpu ~time:_ ~addr =
  match !state with
  | None -> ()
  | Some t -> (
      match Hashtbl.find_opt t.held cpu with
      | None -> ()
      | Some held ->
          (* Tolerate out-of-order release and releases of locks we
             never saw acquired (checker enabled mid-run). *)
          Hashtbl.replace t.held cpu
            (let rec drop_first = function
               | [] -> []
               | h :: rest when h.h_addr = addr -> rest
               | h :: rest -> h :: drop_first rest
             in
             drop_first held))

let percpu_access ~cpu ~time ~owner ~irq_off =
  match !state with
  | None -> ()
  | Some t ->
      t.n_irq_checks <- t.n_irq_checks + 1;
      if cpu <> owner then
        violate t ~rule:Irq_discipline ~cpu ~time
          (Printf.sprintf
             "cpu %d touched per-CPU cache state owned by cpu %d" cpu owner)
      else if not irq_off then
        violate t ~rule:Irq_discipline ~cpu ~time
          (Printf.sprintf
             "per-CPU cache state of cpu %d accessed with interrupts enabled"
             owner)

let vm_call ~cpu ~time ~what =
  match !state with
  | None -> ()
  | Some t ->
      t.n_vm_checks <- t.n_vm_checks + 1;
      let held = Option.value (Hashtbl.find_opt t.held cpu) ~default:[] in
      List.iter
        (fun h ->
          let i = lock_info t ~addr:h.h_addr in
          if not i.vm_safe then
            violate t ~rule:Vm_hold ~cpu ~time
              (Printf.sprintf
                 "Vmsys.%s entered with %s held (class [%s] is not vm_safe; \
                  acquired at t=%d at:\n\
                  %s)"
                 what h.h_name h.h_cls h.h_time h.h_stack))
        held

let viols_oldest_first t = List.rev t.viols

let violations_oracle () =
  match !state with None -> [] | Some t -> viols_oldest_first t

let violation_count_oracle () =
  match !state with None -> 0 | Some t -> List.length t.viols

let check_count_oracle rule =
  match !state with
  | None -> 0
  | Some t -> (
      match rule with
      | Lock_order -> t.n_order_checks
      | Irq_discipline -> t.n_irq_checks
      | Vm_hold -> t.n_vm_checks)

let order_edges_oracle () =
  match !state with
  | None -> []
  | Some t ->
      Hashtbl.fold (fun k _ acc -> k :: acc) t.edges []
      |> List.sort compare

let max_hold_depth_oracle () =
  match !state with None -> 0 | Some t -> t.max_depth

let report () =
  match !state with
  | None -> "lockcheck: disabled\n"
  | Some t ->
      let b = Buffer.create 1024 in
      let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
      pf "== lockcheck report ==\n";
      pf "-- locks seen --\n";
      let locks =
        Hashtbl.fold (fun _ i acc -> i :: acc) t.locks []
        |> List.sort (fun a b -> compare (a.cls, a.name, a.addr) (b.cls, b.name, b.addr))
      in
      if locks = [] then pf "  (none)\n";
      List.iter
        (fun i ->
          pf "  %-24s class [%s]%s  acquisitions %d\n" i.name i.cls
            (if i.vm_safe then " vm-safe" else "") i.acquires)
        locks;
      pf "-- lock-order edges --\n";
      let edges =
        Hashtbl.fold (fun _ e acc -> e :: acc) t.edges []
        |> List.sort (fun a b ->
               compare (a.e_src, a.e_dst) (b.e_src, b.e_dst))
      in
      if edges = [] then pf "  (none)\n";
      List.iter
        (fun e ->
          pf "  [%s] -> [%s]   first seen cpu %d t=%d\n" e.e_src e.e_dst
            e.e_cpu e.e_time)
        edges;
      pf "-- discipline --\n";
      pf "  max hold depth        %d\n" t.max_depth;
      pf "  lock-order checks     %d\n" t.n_order_checks;
      pf "  irq-discipline checks %d\n" t.n_irq_checks;
      pf "  vm-hold checks        %d\n" t.n_vm_checks;
      let viols = viols_oldest_first t in
      pf "-- violations: %d --\n" (List.length viols);
      List.iter (fun (_, msg) -> pf "  %s\n" msg) viols;
      Buffer.contents b
