(* Command line: [main.exe --workload W --seed N --seconds S --trace 0|1]
   [--spans FILE].  Prints a human-readable report on stderr and, as
   the last line of stdout, one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  With [--trace 0]
   the metrics are the end-to-end ones, with [--trace 1] the per-layer
   ones; [--spans] writes the traced run's spans as TSV. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload local|remote|burst --seed N --seconds S \
     --trace 0|1 [--spans FILE]";
  exit 2

let parse argv =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  let get k = Hashtbl.find_opt tbl k in
  let int k = Option.bind (get k) int_of_string_opt in
  let known = [ "workload"; "seed"; "seconds"; "trace"; "spans" ] in
  Hashtbl.iter (fun k _ -> if not (List.mem k known) then usage ()) tbl;
  match
    ( Option.bind (get "workload") Inputs.of_name,
      int "seed",
      Option.bind (get "seconds") float_of_string_opt,
      int "trace" )
  with
  | Some w, Some seed, Some seconds, Some (0 | 1 as t) when seconds > 0. ->
      (w, seed, seconds, t = 1, get "spans")
  | _ -> usage ()

(* Peak resident set (VmHWM), in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" Fun.id
    | _ -> find ()
    | exception End_of_file -> 0
  in
  let kb = find () in
  close_in ic;
  float_of_int kb /. 1024.

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let () =
  let w, seed, seconds, trace, spans = parse Sys.argv in
  (* The OCaml 5.1 defaults, pinned: an OCAMLRUNPARAM in the caller's
     environment must not reshape the native side's garbage. *)
  Gc.set { (Gc.get ()) with minor_heap_size = 262_144; space_overhead = 120 };
  let r = Bench.run w ~seed ~seconds ~trace in
  Option.iter
    (fun file ->
      let oc = open_out file in
      output_string oc
        ("# " ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) r.context) ^ "\n");
      output_string oc "# side\tspan\tname\tparent\treq\tstart_ns\tend_ns\tself_ns\tdetail\n";
      r.write_spans oc;
      close_out oc)
    spans;
  let metrics =
    if trace then r.metrics else r.metrics @ [ ("peak_rss_mb", "MB", peak_rss_mb ()) ]
  in
  List.iter (fun (k, v) -> Printf.eprintf "%-16s %s\n" k v) r.context;
  List.iter (fun (n, u, v) -> Printf.eprintf "%-34s %14.6g %s\n" n v u) metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (r.failed = 0) r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (n, u, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
          metrics))
