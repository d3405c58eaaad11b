(* doclint — the documentation gate for the library interfaces.

   odoc is not part of this build environment, so [dune build @doc] is
   a silent no-op; this linter enforces the documentation contract the
   doc build would otherwise catch, plus one contract it would not:

   1. every .mli begins with a module-level (** ... *) comment;
   2. that comment says where the module stands relative to the source
      paper (a named section, a figure, or an explicit "not part of
      the paper" disclaimer);
   3. every doc comment in the file has balanced odoc markup braces
      (the classic silently-broken markup: an unclosed {v, {[ or {!);
   4. interfaces that export a lock or critical-section API must state
      their synchronization discipline on an "Invariants:" doc line —
      the prose the lockcheck validator dynamically enforces.

   Exits non-zero naming every violation, so the @docs alias (run as
   part of dune runtest) fails the build. *)

let errors = ref 0

let fail file msg =
  incr errors;
  Printf.eprintf "doclint: %s: %s\n" file msg

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let index_of hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i =
    if nl = 0 || i + nl > hl then None
    else if String.sub hay i nl = needle then Some i
    else go (i + 1)
  in
  go 0

let contains hay needle = index_of hay needle <> None

(* The ways a module is allowed to situate itself: a reference into the
   paper (named section or figure — the repo's idiom never invents
   numbered sections), a citation of a PAPERS.md related-work entry
   (the extension arms reproduce designs from the literature around
   the paper, not the paper itself), or an explicit statement that it
   is reproduction infrastructure with no paper counterpart. *)
let paper_markers =
  [
    "paper";
    "Figure 2";
    "Figure 7";
    "Figure 8";
    "Figure 9";
    "Design section";
    "Measurements";
    "Future Directions";
    "PAPERS.md";
  ]

(* First (** ... *) comment starting at [i]; returns (body, end_pos)
   honouring OCaml's nested comments. *)
let parse_comment src i =
  let n = String.length src in
  let buf = Buffer.create 256 in
  let rec go i depth =
    if i >= n then None
    else if i + 1 < n && src.[i] = '(' && src.[i + 1] = '*' then begin
      Buffer.add_string buf "(*";
      go (i + 2) (depth + 1)
    end
    else if i + 1 < n && src.[i] = '*' && src.[i + 1] = ')' then
      if depth = 0 then Some (Buffer.contents buf, i + 2)
      else begin
        Buffer.add_string buf "*)";
        go (i + 2) (depth - 1)
      end
    else begin
      Buffer.add_char buf src.[i];
      go (i + 1) depth
    end
  in
  go i 0

let rec skip_ws src i =
  if i < String.length src && (src.[i] = ' ' || src.[i] = '\n' || src.[i] = '\t')
  then skip_ws src (i + 1)
  else i

(* Interfaces exporting a lock or critical-section API, per-domain
   state shared without one, a wait that another CPU ends, or memory
   only one CPU may touch: their module doc must carry an
   "Invariants:" line naming the discipline (who may take the lock, in
   what order, under what interrupt state; who may write, and what a
   racing reader sees; who may wake a waiter, and what the waiter is
   charged; or who may access an owned line, and what enforces it).
   This is the written half of what lib/lockcheck, the ownership checks
   in Sim.Cache and the fast = scheduled equivalence tests check at run
   time. *)
let invariants_required =
  [
    "spinlock.mli"; "global.mli"; "pagepool.mli"; "vmblk.mli"; "percpu.mli";
    "check.mli"; "heapcheck.mli"; "nbbuddy.mli"; "bwfixed.mli"; "stats.mli";
    "depot.mli"; "magazine.mli"; "pstats.mli"; "pool.mli"; "machine.mli";
    "cache.mli";
  ]

(* Primitives an interface's "Invariants:" text must name, because the
   contract hangs on them: the simulator's run-ahead leg is only sound
   for host code anchored with [sync], and ownership only holds because
   [own] declarations are checked. *)
let invariant_terms =
  [
    ("machine.mli", [ "{!sync}"; "{!wake}"; "ahead" ]);
    ("cache.mli", [ "{!own}" ]);
  ]

(* Lock-free interfaces: correctness rests on a linearization argument,
   not a lock discipline, so their module doc must also carry a
   "Linearization:" paragraph naming the linearization point of every
   hot path (the written half of what the conservation oracles and the
   fast=scheduled determinism tests check dynamically). *)
let linearization_required = [ "nbbuddy.mli"; "bwfixed.mli" ]

let check_module_doc file src =
  let i = skip_ws src 0 in
  if
    i + 3 > String.length src
    || String.sub src i 3 <> "(**"
    || (i + 3 < String.length src && src.[i + 3] = '*')
  then
    fail file "must start with a module-level (** ... *) doc comment"
  else
    match parse_comment src (i + 3) with
    | None -> fail file "unterminated module doc comment"
    | Some (body, _) ->
        if not (List.exists (contains body) paper_markers) then
          fail file
            "module doc comment must state which paper section or figure \
             the module reproduces (or that it has no paper counterpart)";
        if
          List.mem (Filename.basename file) invariants_required
          && not (contains body "Invariants:")
        then
          fail file
            "interface exports a lock or critical-section API: module doc \
             must carry an \"Invariants:\" line naming its \
             synchronization discipline";
        (match List.assoc_opt (Filename.basename file) invariant_terms with
        | None -> ()
        | Some terms ->
            let inv =
              match index_of body "Invariants:" with
              | Some i -> String.sub body i (String.length body - i)
              | None -> ""
            in
            List.iter
              (fun term ->
                if not (contains inv term) then
                  fail file
                    (Printf.sprintf
                       "the \"Invariants:\" text must name %s, the \
                        primitive its contract rests on"
                       term))
              terms);
        if
          List.mem (Filename.basename file) linearization_required
          && not (contains body "Linearization:")
        then
          fail file
            "lock-free interface: module doc must carry a \
             \"Linearization:\" paragraph naming the linearization point \
             of each operation"

(* Walk every doc comment and check its markup braces pair up.  Odoc
   markup is brace-delimited ({v ... v}, {[ ... ]}, {!ref}, {1 head});
   an unbalanced brace is exactly the corruption a missing doc build
   would let through. *)
let check_markup file src =
  let n = String.length src in
  let rec scan i =
    if i + 2 < n && src.[i] = '(' && src.[i + 1] = '*' && src.[i + 2] = '*'
    then
      match parse_comment src (i + 3) with
      | None -> fail file "unterminated doc comment"
      | Some (body, j) ->
          let depth = ref 0 and bad = ref false in
          String.iter
            (fun c ->
              if c = '{' then incr depth
              else if c = '}' then begin
                decr depth;
                if !depth < 0 then bad := true
              end)
            body;
          if !bad || !depth <> 0 then
            fail file
              (Printf.sprintf "unbalanced odoc markup braces in \"%s...\""
                 (String.sub body 0 (min 40 (String.length body))));
          scan j
    else if i < n then scan (i + 1)
  in
  scan 0

let () =
  let files = List.tl (Array.to_list Sys.argv) in
  if files = [] then begin
    prerr_endline "doclint: no files given";
    exit 2
  end;
  List.iter
    (fun f ->
      let src = read_file f in
      check_module_doc f src;
      check_markup f src)
    files;
  if !errors > 0 then exit 1
