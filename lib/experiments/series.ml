let widths header rows =
  let all = header :: rows in
  let ncols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let w = Array.make ncols 0 in
  List.iter
    (List.iteri (fun i cell -> w.(i) <- max w.(i) (String.length cell)))
    all;
  w

let print_row w row =
  List.iteri
    (fun i cell ->
      let pad = String.make (w.(i) - String.length cell) ' ' in
      if i = 0 then print_string (cell ^ pad)
      else print_string ("  " ^ pad ^ cell))
    row;
  print_newline ()

let table ~header rows =
  let w = widths header rows in
  print_row w header;
  print_row w
    (List.mapi (fun i _ -> String.make w.(i) '-') header);
  List.iter (print_row w) rows

let f1 v = Printf.sprintf "%.1f" v
let f3 v = Printf.sprintf "%.3f" v
let sci v = Printf.sprintf "%.2e" v

let pct v =
  if Float.is_nan v then "-" else Printf.sprintf "%.2f%%" (100. *. v)

let heading s =
  print_newline ();
  print_endline s;
  print_endline (String.make (String.length s) '=')
