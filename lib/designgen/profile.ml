type t = {
  name : string;
  n_registers : int;
  composable_frac : float;
  width_mix : (int * float) list;
  gates_per_reg : float;
  n_gated_domains : int;
  ungated_frac : float;
  n_scan_partitions : int;
  ordered_scan_frac : float;
  scan_class_frac : float;
  latch_frac : float;
  cluster_size_mean : int;
  target_util : float;
  failing_frac : float;
  cross_cluster_frac : float;
  flat : bool;
  corner_spread : float;
  seed : int;
}

(* Table 1, Base rows, at ~1/20 scale:
   D1: 29 416 regs, 18 332 composable (62 %)
   D2: 37 401 regs, 27 992 composable (75 %)
   D3: 34 519 regs, 21 880 composable (63 %)
   D4: 50 392 regs, 22 017 composable (44 %), 8-bit rich
   D5: 34 519 regs, 21 879 composable (63 %) *)

let d1 =
  {
    name = "D1";
    n_registers = 1470;
    composable_frac = 0.74;
    width_mix = [ (1, 0.42); (2, 0.24); (4, 0.24); (8, 0.10) ];
    gates_per_reg = 5.5;
    n_gated_domains = 3;
    ungated_frac = 0.15;
    n_scan_partitions = 2;
    ordered_scan_frac = 0.15;
    scan_class_frac = 0.40;
    latch_frac = 0.08;
    cluster_size_mean = 22;
    target_util = 0.62;
    failing_frac = 0.38;
    cross_cluster_frac = 0.10;
    flat = false;
    corner_spread = 0.0;
    seed = 0x5EED_D1;
  }

let d2 =
  {
    name = "D2";
    n_registers = 1870;
    composable_frac = 0.88;
    width_mix = [ (1, 0.55); (2, 0.20); (4, 0.15); (8, 0.10) ];
    gates_per_reg = 5.0;
    n_gated_domains = 4;
    ungated_frac = 0.10;
    n_scan_partitions = 3;
    ordered_scan_frac = 0.10;
    scan_class_frac = 0.35;
    latch_frac = 0.08;
    cluster_size_mean = 26;
    target_util = 0.60;
    failing_frac = 0.38;
    cross_cluster_frac = 0.12;
    flat = false;
    corner_spread = 0.0;
    seed = 0x5EED_D2;
  }

let d3 =
  {
    name = "D3";
    n_registers = 1725;
    composable_frac = 0.75;
    width_mix = [ (1, 0.46); (2, 0.24); (4, 0.20); (8, 0.10) ];
    gates_per_reg = 6.5;
    n_gated_domains = 3;
    ungated_frac = 0.12;
    n_scan_partitions = 2;
    ordered_scan_frac = 0.20;
    scan_class_frac = 0.45;
    latch_frac = 0.08;
    cluster_size_mean = 20;
    target_util = 0.72;
    failing_frac = 0.40;
    cross_cluster_frac = 0.15;
    flat = false;
    corner_spread = 0.0;
    seed = 0x5EED_D3;
  }

let d4 =
  {
    name = "D4";
    n_registers = 2520;
    composable_frac = 0.72;
    width_mix = [ (1, 0.24); (2, 0.14); (4, 0.20); (8, 0.42) ];
    gates_per_reg = 6.0;
    n_gated_domains = 5;
    ungated_frac = 0.10;
    n_scan_partitions = 3;
    ordered_scan_frac = 0.15;
    scan_class_frac = 0.40;
    latch_frac = 0.08;
    cluster_size_mean = 24;
    target_util = 0.65;
    failing_frac = 0.36;
    cross_cluster_frac = 0.10;
    flat = false;
    corner_spread = 0.0;
    seed = 0x5EED_D4;
  }

let d5 =
  {
    name = "D5";
    n_registers = 1725;
    composable_frac = 0.82;
    width_mix = [ (1, 0.50); (2, 0.20); (4, 0.20); (8, 0.10) ];
    gates_per_reg = 5.5;
    n_gated_domains = 3;
    ungated_frac = 0.12;
    n_scan_partitions = 2;
    ordered_scan_frac = 0.12;
    scan_class_frac = 0.38;
    latch_frac = 0.08;
    cluster_size_mean = 22;
    target_util = 0.63;
    failing_frac = 0.38;
    cross_cluster_frac = 0.11;
    flat = false;
    corner_spread = 0.0;
    seed = 0x5EED_D5;
  }

let all = [ d1; d2; d3; d4; d5 ]

let tiny ~seed =
  {
    name = "tiny";
    n_registers = 120;
    composable_frac = 0.7;
    width_mix = [ (1, 0.5); (2, 0.25); (4, 0.15); (8, 0.10) ];
    gates_per_reg = 4.0;
    n_gated_domains = 2;
    ungated_frac = 0.2;
    n_scan_partitions = 2;
    ordered_scan_frac = 0.15;
    scan_class_frac = 0.4;
    latch_frac = 0.08;
    cluster_size_mean = 15;
    target_util = 0.55;
    failing_frac = 0.35;
    cross_cluster_frac = 0.1;
    flat = false;
    corner_spread = 0.0;
    seed;
  }

(* Aggregation-hostile: no name/clock/enable correlation between
   spatially-near registers and randomized bit ordering (both applied
   in Generate when [flat] is set), so composition has to earn every
   merge from placement and timing alone. *)
let flat ~seed =
  {
    (tiny ~seed) with
    name = "flat";
    n_registers = 150;
    cluster_size_mean = 12;
    flat = true;
  }

let scaled p f =
  { p with n_registers = max 10 (int_of_float (float_of_int p.n_registers *. f)) }

let names = List.map (fun p -> String.lowercase_ascii p.name) all @ [ "tiny"; "flat" ]

let of_name ?seed name =
  match List.find_opt (fun p -> String.lowercase_ascii p.name = name) all with
  | Some p -> Some (match seed with Some seed -> { p with seed } | None -> p)
  | None -> (
    let seed = Option.value seed ~default:1 in
    match name with
    | "tiny" -> Some (tiny ~seed)
    | "flat" -> Some (flat ~seed)
    | _ -> None)
