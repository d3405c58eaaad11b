type t = {
  rings : Event.t Ring.t array;
  capacity : int;
  lock_names : (int, string) Hashtbl.t;
  mutable oob : int;
}

let dummy_event = { Event.time = 0; cpu = 0; kind = Event.Vm_grant }

let create ?(capacity = 65536) ~ncpus () =
  if ncpus < 1 then invalid_arg "Flightrec.Recorder.create: ncpus < 1";
  if capacity < 1 then invalid_arg "Flightrec.Recorder.create: capacity < 1";
  {
    rings = Array.init ncpus (fun _ -> Ring.create ~capacity ~dummy:dummy_event);
    capacity;
    lock_names = Hashtbl.create 32;
    oob = 0;
  }

let ncpus t = Array.length t.rings

(* The globally-installed recorder and its hot flag.  [hot] mirrors
   "a recorder is installed" so the disabled path at every
   instrumentation site is one branch on one mutable bool. *)
let current : t option ref = ref None
let hot = ref false

let install t =
  current := Some t;
  hot := true

let uninstall () =
  current := None;
  hot := false

let installed () = !current
let on () = !hot

let emit ~cpu ~time kind =
  match !current with
  | None -> ()
  | Some r ->
      if cpu < 0 || cpu >= Array.length r.rings then r.oob <- r.oob + 1
      else Ring.push r.rings.(cpu) { Event.time; cpu; kind }

let note_lock ~addr name =
  match !current with
  | None -> ()
  | Some r -> Hashtbl.replace r.lock_names addr name

let lock_name t addr =
  match Hashtbl.find_opt t.lock_names addr with
  | Some n -> n
  | None -> Printf.sprintf "lock@%d" addr

let recorded t =
  Array.fold_left (fun acc ring -> acc + Ring.length ring) 0 t.rings

let total t =
  Array.fold_left (fun acc ring -> acc + Ring.total ring) 0 t.rings

let drops t ~cpu = Ring.dropped t.rings.(cpu)

let oob t = t.oob

let events ?cpu ?si ?kind ?t_min ?t_max t =
  let keep (e : Event.t) =
    (match cpu with Some c -> e.Event.cpu = c | None -> true)
    && (match si with
       | Some s -> Event.si_of e.Event.kind = Some s
       | None -> true)
    && (match kind with Some p -> p e.Event.kind | None -> true)
    && (match t_min with Some lo -> e.Event.time >= lo | None -> true)
    && match t_max with Some hi -> e.Event.time <= hi | None -> true
  in
  let all =
    Array.fold_left
      (fun acc ring ->
        Ring.fold ring ~init:acc ~f:(fun acc e ->
            if keep e then e :: acc else acc))
      [] t.rings
  in
  (* Each ring is time-ordered already (per-CPU clocks are monotonic);
     a stable sort on (time, cpu) merges them deterministically. *)
  List.stable_sort
    (fun (a : Event.t) (b : Event.t) ->
      match compare a.Event.time b.Event.time with
      | 0 -> compare a.Event.cpu b.Event.cpu
      | c -> c)
    (List.rev all)
