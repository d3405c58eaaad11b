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
      the prose the lockcheck validator dynamically enforces;
   5. every [val] a lib/*/*.mli exports has a user outside the test
      suite (libraries, drivers, tools, examples and perfbench count),
      unless its name ends in [_oracle]: a host-side read or switch
      that tests check against.  So dead surface cannot accumulate,
      and a test alone keeps nothing alive;
   6. in the library sources, an [assert] performs no [Machine]
      operation, and [Machine.peek], the host-side read, serves only
      [assert]s: checks cost no simulated cycles;
   7. the simulator's and the allocator's sources (lib/sim, lib/kma)
      call no bare [max], [min] or [compare]: without flambda those
      are out-of-line calls into polymorphic comparison on the
      per-access path, where [Int.max] and its kin compile to a
      compare and a branch.

   Its arguments are every source file of the repo; checks 1-4 read
   the library interfaces among them, checks 6 and 7 the library
   implementations.  Exits non-zero naming every
   violation, so the @docs alias (run as part of dune runtest) fails
   the build. *)

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

(* --- Check 5: no exported value without a user ---

   A rough lexical model, not a type checker.  String and character
   literals are skipped; the rest, comments included (a value another
   module's documentation names is part of the documented surface), is
   read as dotted paths ([Sim.Config.make]) and the punctuation that
   follows them.  A file other than the module's own .ml/.mli uses
   [M.v] when it has the path [... M.v], the path [X.v] under
   [module X = ... M], or the bare identifier [v] after opening [M]
   ([open], [let open], [M.( )]).  A module that [include]s [M]
   re-exports it under its own name. *)

let is_ident_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(* The source with string and character literals blanked, in code and
   in comments alike (OCaml lexes strings inside comments too). *)
let code_of src =
  let n = String.length src in
  let b = Buffer.create n in
  let rec code i =
    if i >= n then ()
    else if src.[i] = '"' then string (i + 1)
    else if
      src.[i] = '\''
      && (i = 0 || not (is_ident_char src.[i - 1]))
      && ((i + 2 < n && src.[i + 2] = '\'')
         || (i + 1 < n && src.[i + 1] = '\\'))
    then char (i + 1)
    else begin
      Buffer.add_char b src.[i];
      code (i + 1)
    end
  and string i =
    let j = skip_string i in
    Buffer.add_string b "\"\"";
    (* Keep the literal's newlines, so check 6's line numbers hold. *)
    for k = i to j - 1 do
      if src.[k] = '\n' then Buffer.add_char b '\n'
    done;
    code j
  and skip_string i =
    if i >= n then n
    else if src.[i] = '\\' then skip_string (i + 2)
    else if src.[i] = '"' then i + 1
    else skip_string (i + 1)
  and char i =
    let rec close i =
      if i >= n || src.[i] = '\'' then i + 1 else close (i + 1)
    in
    let j = if src.[i] = '\\' then close (i + 2) else close (i + 1) in
    Buffer.add_char b ' ';
    code j
  in
  code 0;
  Buffer.contents b

(* Dotted paths, each flagged when a local open [M.( ... )] follows. *)
let paths code =
  let n = String.length code in
  let rec word k =
    if k < n && is_ident_char code.[k] then word (k + 1) else k
  in
  let dot_then e c = e + 1 < n && code.[e] = '.' && c code.[e + 1] in
  let rec path start comps =
    let e = word start in
    let comps = String.sub code start (e - start) :: comps in
    if dot_then e is_ident_char then path (e + 1) comps
    else (List.rev comps, dot_then e (( = ) '('), e)
  in
  let rec go i acc =
    if i >= n then List.rev acc
    else if is_ident_char code.[i] && not (code.[i] >= '0' && code.[i] <= '9')
    then
      let comps, local_open, e = path i [] in
      go e ((comps, local_open) :: acc)
    else go (i + 1) acc
  in
  go 0 []

let last l = List.nth l (List.length l - 1)
let capitalized s = s <> "" && s.[0] >= 'A' && s.[0] <= 'Z'

type uses = {
  pairs : (string * string) list;  (* [M.v] as written or through an alias *)
  opened : string list;
  bare : string list;  (* the first identifier of every path *)
  includes : string list;
}

let uses_of code =
  let ps = Array.of_list (paths code) in
  let module_at i =
    if i < Array.length ps && List.for_all capitalized (fst ps.(i)) then
      Some (last (fst ps.(i)))
    else None
  in
  let aliases = ref [] and opened = ref [] and includes = ref [] in
  Array.iteri
    (fun i (comps, local_open) ->
      match (comps, module_at (i + 1)) with
      | [ ("open" | "include") as kw ], Some m ->
          opened := m :: !opened;
          if kw = "include" then includes := m :: !includes
      | [ "module" ], Some x -> (
          match module_at (i + 2) with
          | Some m -> aliases := (x, m) :: !aliases
          | None -> ())
      | _ ->
          if local_open && List.for_all capitalized comps then
            opened := last comps :: !opened)
    ps;
  let rec pairs acc = function
    | m :: (v :: _ as rest) ->
        let via_alias =
          List.filter_map
            (fun (x, m') -> if x = m then Some (m', v) else None)
            !aliases
        in
        pairs (((m, v) :: via_alias) @ acc) rest
    | _ -> acc
  in
  {
    pairs = Array.fold_left (fun acc (comps, _) -> pairs acc comps) [] ps;
    opened = !opened;
    bare = Array.to_list (Array.map (fun (c, _) -> List.hd c) ps);
    includes = !includes;
  }

(* lib/<library>/<module>.mli, the interfaces the checks read. *)
let is_interface f =
  Filename.check_suffix f ".mli"
  && Filename.basename (Filename.dirname (Filename.dirname f)) = "lib"

let module_of f =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename f))

let stem f = Filename.concat (Filename.dirname f) (module_of f)

let exported_vals src =
  List.filter_map
    (fun line ->
      match String.split_on_char ' ' (String.trim line) with
      | "val" :: name :: _ when name <> "" && name.[0] <> '(' ->
          let name =
            match String.index_opt name ':' with
            | Some i -> String.sub name 0 i
            | None -> name
          in
          Some name
      | _ -> None)
    (String.split_on_char '\n' src)

let in_tests f =
  List.mem "test" (String.split_on_char '/' (Filename.dirname f))

let check_unused files srcs =
  let uses =
    List.map (fun f -> (f, uses_of (code_of (List.assoc f srcs)))) files
  in
  (* Modules that re-export [m] under their own name. *)
  let reexports m =
    m
    :: List.filter_map
         (fun (f, u) ->
           if List.mem m u.includes then Some (module_of f) else None)
         uses
  in
  List.iter
    (fun f ->
      if is_interface f then begin
        let m = module_of f in
        let names = reexports m in
        let others = List.filter (fun (g, _) -> stem g <> stem f) uses in
        List.iter
          (fun v ->
            let others =
              if String.ends_with ~suffix:"_oracle" v then others
              else List.filter (fun (g, _) -> not (in_tests g)) others
            in
            let used (_, u) =
              List.exists (fun n -> List.mem (n, v) u.pairs) names
              || (List.exists (fun n -> List.mem n u.opened) names
                 && List.mem v u.bare)
            in
            if not (List.exists used others) then
              fail f
                (Printf.sprintf
                   "val %s has no user outside %s and the tests: delete it, \
                    drop it from the interface if %s still uses it, or end \
                    its name in _oracle if tests check against it"
                   v m m))
          (exported_vals (List.assoc f srcs))
      end)
    files

(* --- Check 6: checks cost no simulated cycles ---

   An [assert] that performs a [Machine] operation charges cycles,
   retires an instruction and can miss, so compiling assertions out
   ([-noassert]) would change the simulated results.  In a library
   source, an [assert]'s argument may therefore name no [Machine] value
   but [peek], the host-side read; and [peek] may appear nowhere else,
   since simulated code that read through it would read for free.
   Lexical, like check 5: comments are blanked, and a check that calls
   a helper which performs an operation is left to the verify recipe's
   [-noassert] diff. *)

let blank_comments code =
  let b = Bytes.of_string code in
  let n = Bytes.length b in
  let rec go i depth =
    if i + 1 < n && code.[i] = '(' && code.[i + 1] = '*' then begin
      Bytes.fill b i 2 ' ';
      go (i + 2) (depth + 1)
    end
    else if depth > 0 && i + 1 < n && code.[i] = '*' && code.[i + 1] = ')'
    then begin
      Bytes.fill b i 2 ' ';
      go (i + 2) (depth - 1)
    end
    else if i < n then begin
      if depth > 0 && code.[i] <> '\n' then Bytes.set b i ' ';
      go (i + 1) depth
    end
  in
  go 0 0;
  Bytes.to_string b

let word_at code i w =
  let n = String.length code and l = String.length w in
  i + l <= n
  && String.sub code i l = w
  && (i = 0 || not (is_ident_char code.[i - 1]))
  && (i + l = n || not (is_ident_char code.[i + l]))

(* The [(start, stop)] span of every [assert (...)]'s argument. *)
let assert_spans code =
  let n = String.length code in
  let rec close i depth =
    if i >= n then n
    else if code.[i] = '(' then close (i + 1) (depth + 1)
    else if code.[i] = ')' then
      if depth = 1 then i else close (i + 1) (depth - 1)
    else close (i + 1) depth
  in
  let rec go i acc =
    if i >= n then acc
    else if word_at code i "assert" then
      let j = skip_ws code (i + 6) in
      if j < n && code.[j] = '(' then go (j + 1) ((j, close j 0) :: acc)
      else go (i + 6) acc
    else go (i + 1) acc
  in
  go 0 []

(* Report [msg] at the line of offset [p] in [code], which keeps the
   source's newlines. *)
let fail_at file code p msg =
  let line = ref 1 in
  String.iteri (fun k c -> if k < p && c = '\n' then incr line) code;
  fail (Printf.sprintf "%s:%d" file !line) msg

let check_asserts file code =
  let spans = assert_spans code in
  let fail_at = fail_at file code in
  let n = String.length code in
  for i = 0 to n - 1 do
    if word_at code i "Machine" && i + 8 < n && code.[i + 7] = '.' then begin
      let e = ref (i + 8) in
      while !e < n && is_ident_char code.[!e] do incr e done;
      let v = String.sub code (i + 8) (!e - i - 8) in
      let checked = List.exists (fun (a, b) -> a < i && i < b) spans in
      if checked && v <> "peek" then
        fail_at i
          (Printf.sprintf
             "assert performs Machine.%s, a simulated operation: read the \
              word host-side with Machine.peek"
             v)
      else if (not checked) && v = "peek" then
        fail_at i
          "Machine.peek outside an assert: simulated code must read through \
           a charged operation"
    end
  done

(* --- Check 7: no polymorphic comparison on the per-access code ---

   Lexical: a [max], [min] or [compare] that no [.] qualifies (and that
   is not a [~] or [?] label) is the polymorphic one. *)

let per_access_libs = [ "sim"; "kma" ]

let check_poly_compare file code =
  let n = String.length code in
  for i = 0 to n - 1 do
    List.iter
      (fun w ->
        if word_at code i w && not (i > 0 && String.contains ".~?" code.[i - 1])
        then
          fail_at file code i
            (Printf.sprintf
               "bare %s is polymorphic comparison, an out-of-line call on \
                the per-access path: use Int.%s"
               w w))
      [ "max"; "min"; "compare" ]
  done

let () =
  let files = List.tl (Array.to_list Sys.argv) in
  if files = [] then begin
    prerr_endline "doclint: no files given";
    exit 2
  end;
  let srcs = List.map (fun f -> (f, read_file f)) files in
  List.iter
    (fun (f, src) ->
      if is_interface f then begin
        check_module_doc f src;
        check_markup f src
      end)
    srcs;
  check_unused files srcs;
  List.iter
    (fun (f, src) ->
      if
        Filename.check_suffix f ".ml"
        && List.mem "lib" (String.split_on_char '/' f)
      then begin
        let code = blank_comments (code_of src) in
        check_asserts f code;
        if
          List.mem (Filename.basename (Filename.dirname f)) per_access_libs
          && Filename.basename (Filename.dirname (Filename.dirname f)) = "lib"
        then check_poly_compare f code
      end)
    srcs;
  if !errors > 0 then exit 1
