let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let fig7_data points =
  let whichs =
    List.sort_uniq compare (List.map (fun p -> p.Fig7.which) points)
  in
  let cpus =
    List.sort_uniq compare (List.map (fun p -> p.Fig7.ncpus) points)
  in
  let b = Buffer.create 512 in
  Buffer.add_string b "# cpus";
  List.iter
    (fun w -> Buffer.add_string b ("\t" ^ Baseline.Allocator.name_of w))
    whichs;
  Buffer.add_char b '\n';
  List.iter
    (fun n ->
      Buffer.add_string b (string_of_int n);
      List.iter
        (fun w ->
          let v =
            match
              List.find_opt
                (fun p -> p.Fig7.which = w && p.Fig7.ncpus = n)
                points
            with
            | Some p -> p.Fig7.ops_per_sec
            | None -> Float.nan
          in
          Buffer.add_string b (Printf.sprintf "\t%.6g" v))
        whichs;
      Buffer.add_char b '\n')
    cpus;
  (Buffer.contents b, whichs)

let series_plots ~dat whichs =
  String.concat ", \\\n     "
    (List.mapi
       (fun i w ->
         Printf.sprintf "%S using 1:%d with linespoints title %S" dat (i + 2)
           (Baseline.Allocator.name_of w))
       whichs)

let fig7_script ~prefix ~logscale whichs =
  let dat = prefix ^ ".dat" in
  Printf.sprintf
    {|set terminal pngcairo size 900,600
set output "%s.png"
set title "%s"
set xlabel "Number of CPUs"
set ylabel "alloc/free pairs per second"
%sset key top left
plot %s
|}
    prefix
    (if logscale then
       "Figure 8: allocations and frees per second (semilog)"
     else "Figure 7: allocations and frees per second")
    (if logscale then "set logscale y\n" else "")
    (series_plots ~dat whichs)

let write_fig7 points ~prefix =
  let data, whichs = fig7_data points in
  write_file (prefix ^ ".dat") data;
  write_file (prefix ^ ".gp") (fig7_script ~prefix ~logscale:false whichs)

let write_fig8 points ~prefix =
  let data, whichs = fig7_data points in
  write_file (prefix ^ ".dat") data;
  write_file (prefix ^ ".gp") (fig7_script ~prefix ~logscale:true whichs)

let write_fig9 results ~prefix =
  let b = Buffer.create 512 in
  Buffer.add_string b "# bytes\tallocs_per_sec\tfrees_per_sec\tpairs_per_sec\n";
  List.iter
    (fun r ->
      let open Workload.Worstcase in
      Buffer.add_string b
        (Printf.sprintf "%d\t%.6g\t%.6g\t%.6g\n" r.bytes r.allocs_per_sec
           r.frees_per_sec r.pairs_per_sec))
    results;
  write_file (prefix ^ ".dat") (Buffer.contents b);
  let dat = prefix ^ ".dat" in
  write_file (prefix ^ ".gp")
    (Printf.sprintf
       {|set terminal pngcairo size 900,600
set output "%s.png"
set title "Figure 9: worst-case performance"
set xlabel "Block size (bytes)"
set ylabel "operations per second"
set logscale x 2
set key top right
plot %S using 1:2 with linespoints title "allocations", \
     %S using 1:3 with linespoints title "frees", \
     %S using 1:4 with linespoints title "alloc/free pairs"
|}
       prefix dat dat dat)
