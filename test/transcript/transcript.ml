(* transcript KMA_BENCH: runs every line of Lines.lines through the
   kma_bench binary KMA_BENCH and prints, for each,

     $ kma_bench <line>
     <its stdout>
     [exit N]            (when N is not 0)

   Stderr is discarded: it holds cmdliner's usage text and the --jobs
   clamp note, which appears or not with the host's core count.

   Two checks fail the run (exit 1, the reason on stderr):
   - coverage, before anything runs: every Harness.commands entry but
     the host-timed ones has a line, and every line names a command;
   - zero perturbation: an armed line (one carrying a checker flag) is
     run again without its checker flags, and that stdout must be a
     byte prefix of the armed one, since each checker prints its report
     after the run and changes nothing before it. *)

(* Natively timed: their stdout is host ns and ops/s, so no transcript
   can pin it. *)
let host_timed = [ "bechamel"; "pool-domains" ]

let checker_flags =
  List.map
    (fun c -> "--" ^ Harness.check_name c)
    Harness.[ Lockcheck; Heapcheck; Flightrec ]

let is_checker_flag arg =
  List.exists
    (fun f -> arg = f || String.starts_with ~prefix:(f ^ "=") arg)
    checker_flags

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("transcript: " ^ msg);
      exit 1)
    fmt

let check_coverage argvs =
  let names = List.map (fun (e : Harness.t) -> e.name) Harness.commands in
  let named = List.map List.hd argvs in
  List.iter
    (fun c ->
      if not (List.mem c names) then
        fail "a line names %s, which is not a kma_bench command" c)
    named;
  List.iter
    (fun n ->
      if not (List.mem n named || List.mem n host_timed) then
        fail "kma_bench %s has no line in lines.ml" n)
    names

(* [bin args]'s stdout and exit status. *)
let run bin args =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ O_WRONLY; O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process bin
      (Array.of_list ("kma_bench" :: args))
      Unix.stdin out_w null
  in
  Unix.close out_w;
  Unix.close null;
  let ic = Unix.in_channel_of_descr out_r in
  let out = In_channel.input_all ic in
  close_in ic;
  (out, snd (Unix.waitpid [] pid))

let () =
  let bin =
    match Sys.argv with
    (* A bare name would be looked up in PATH. *)
    | [| _; bin |] when Filename.is_implicit bin -> Filename.concat "." bin
    | [| _; bin |] -> bin
    | _ -> fail "usage: transcript KMA_BENCH"
  in
  let argvs = List.map (String.split_on_char ' ') Lines.lines in
  check_coverage argvs;
  List.iter
    (fun args ->
      let out, status = run bin args in
      Printf.printf "$ kma_bench %s\n%s" (String.concat " " args) out;
      (match status with
      | WEXITED 0 -> ()
      | WEXITED n -> Printf.printf "[exit %d]\n" n
      | WSIGNALED n | WSTOPPED n -> Printf.printf "[signal %d]\n" n);
      let plain = List.filter (fun a -> not (is_checker_flag a)) args in
      if plain <> args then begin
        let unarmed, _ = run bin plain in
        if not (String.starts_with ~prefix:unarmed out) then
          fail "%s: stdout without its checker flags is not a prefix of it"
            (String.concat " " args)
      end)
    argvs
