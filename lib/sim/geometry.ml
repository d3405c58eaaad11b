type t = {
  line_words : int;
  cache_lines : int;
  ways : int;
  insn_cost : int;
  miss_cost : int;
  c2c_cost : int;
  upgrade_cost : int;
  rmw_cost : int;
  nodes : int;
  node_miss_cost : int;
  node_c2c_cost : int;
}

let default =
  {
    line_words = 8;
    cache_lines = 256;
    ways = 0;
    insn_cost = 1;
    miss_cost = 30;
    c2c_cost = 50;
    upgrade_cost = 20;
    rmw_cost = 12;
    nodes = 1;
    node_miss_cost = 60;
    node_c2c_cost = 80;
  }

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let validate t =
  let check cond msg =
    if not cond then invalid_arg ("Sim.Geometry: " ^ msg)
  in
  check (is_power_of_two t.line_words) "line_words must be a power of two";
  check (t.cache_lines >= 0) "cache_lines must be non-negative";
  check (t.ways >= 0) "ways must be non-negative (0 = fully associative)";
  if t.ways > 0 then begin
    check (t.cache_lines > 0) "ways > 0 needs a bounded cache (lines > 0)";
    check (t.cache_lines mod t.ways = 0) "ways must divide cache_lines";
    check
      (is_power_of_two (t.cache_lines / t.ways))
      "cache_lines / ways (the set count) must be a power of two"
  end;
  check (t.insn_cost >= 0) "insn_cost must be non-negative";
  check (t.miss_cost >= 0) "miss_cost must be non-negative";
  check (t.c2c_cost >= 0) "c2c_cost must be non-negative";
  check (t.upgrade_cost >= 0) "upgrade_cost must be non-negative";
  check (t.rmw_cost >= 0) "rmw_cost must be non-negative";
  check (t.nodes >= 1) "nodes must be at least 1";
  check (t.node_miss_cost >= 0) "node_miss_cost must be non-negative";
  check (t.node_c2c_cost >= 0) "node_c2c_cost must be non-negative"

let to_string t =
  Printf.sprintf
    "line=%d,lines=%d,assoc=%d,insn=%d,miss=%d,c2c=%d,upgrade=%d,rmw=%d,nodes=%d,node_miss=%d,node_c2c=%d"
    t.line_words t.cache_lines t.ways t.insn_cost t.miss_cost t.c2c_cost
    t.upgrade_cost t.rmw_cost t.nodes t.node_miss_cost t.node_c2c_cost

let of_string spec =
  let parse_pair acc pair =
    match acc with
    | Error _ -> acc
    | Ok g -> (
        match String.index_opt pair '=' with
        | None ->
            Error
              (Printf.sprintf "geometry: %S is not a key=value pair" pair)
        | Some i -> (
            let key = String.trim (String.sub pair 0 i) in
            let v =
              String.trim
                (String.sub pair (i + 1) (String.length pair - i - 1))
            in
            match int_of_string_opt v with
            | None ->
                Error
                  (Printf.sprintf "geometry: %s=%S is not an integer" key v)
            | Some n -> (
                match key with
                | "line" -> Ok { g with line_words = n }
                | "lines" -> Ok { g with cache_lines = n }
                | "assoc" -> Ok { g with ways = n }
                | "insn" -> Ok { g with insn_cost = n }
                | "miss" -> Ok { g with miss_cost = n }
                | "c2c" -> Ok { g with c2c_cost = n }
                | "upgrade" -> Ok { g with upgrade_cost = n }
                | "rmw" -> Ok { g with rmw_cost = n }
                | "nodes" -> Ok { g with nodes = n }
                | "node_miss" -> Ok { g with node_miss_cost = n }
                | "node_c2c" -> Ok { g with node_c2c_cost = n }
                | _ ->
                    Error
                      (Printf.sprintf
                         "geometry: unknown key %S (want line, lines, \
                          assoc, insn, miss, c2c, upgrade, rmw, nodes, \
                          node_miss or node_c2c)"
                         key))))
  in
  let parts =
    List.filter
      (fun s -> String.trim s <> "")
      (String.split_on_char ',' spec)
  in
  match List.fold_left parse_pair (Ok default) parts with
  | Error _ as e -> e
  | Ok g -> ( match validate g with () -> Ok g | exception Invalid_argument m -> Error m)

(* The ambient geometry is written once by a driver at startup (before
   any domain is spawned) and only read afterwards, so a plain ref is
   race-free: the Domain.spawn in lib/parallel publishes it. *)
let ambient_geometry = ref default

let set_ambient g =
  validate g;
  ambient_geometry := g

let ambient () = !ambient_geometry
