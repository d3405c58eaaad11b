(* kma_bench: one subcommand per paper artifact, each defined in
   lib/harness's table.  See DESIGN.md for the experiment index and
   EXPERIMENTS.md for recorded results. *)

open Cmdliner

(* Exit codes: 0 ok, 2 usage error, 124 bad flag value, 125 escaped
   exception (cmdliner's), 3 failed check. *)
let exit_code run =
  match run () with
  | _ -> 0
  | exception Harness.Usage_error msg ->
      prerr_endline ("kma_bench: " ^ msg);
      Cmd.Exit.cli_error
  | exception Harness.Check_failed msg ->
      prerr_endline ("kma_bench: " ^ msg);
      3

let () =
  let info =
    Cmd.info "kma_bench" ~version:"1.0"
      ~doc:
        "Reproduces the tables and figures of McKenney & Slingwine, USENIX \
         Winter 1993."
  in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval'
       (Cmd.group ~default info
          (List.map (Harness.cmd exit_code) Harness.commands)))
