let row_height = 1.2

(* Per-bit area shrink from control sharing as width grows. *)
let share_factor = function
  | 1 -> 1.0
  | 2 -> 0.93
  | 3 -> 0.90
  | 4 -> 0.87
  | 8 -> 0.82
  | _ -> 0.85

(* A b-bit MBR exposes one clock pin whose capacitance grows slower
   than b separate pins would (shared local clock buffering); the 0.45
   slope keeps the per-merge saving at the moderate level 28 nm
   libraries exhibit (an 8-bit pin ≈ 52 % of eight 1-bit pins). *)
let clock_cap_of ~base bits = base *. (1.0 +. (0.45 *. float_of_int (bits - 1)))

let drive_area_factor = function 1 -> 1.0 | 2 -> 1.18 | 4 -> 1.42 | _ -> 1.6

let make_cell ~name ~func_class ~bits ~drive ~scan ~base_bit_area ~base_ccap
    ~scan_area_factor =
  let area =
    base_bit_area *. float_of_int bits *. share_factor bits
    *. drive_area_factor drive *. scan_area_factor
  in
  let width = area /. row_height in
  Cell.
    {
      name;
      func_class;
      bits;
      drive;
      area;
      width;
      height = row_height;
      clock_pin_cap = clock_cap_of ~base:base_ccap bits;
      data_pin_cap = 0.6;
      drive_res = 2.0 /. float_of_int drive;
      intrinsic = 58.0 +. (2.0 *. float_of_int bits);
      setup = 25.0;
      leakage = area *. 1.1;
      scan;
    }

let default () =
  let widths = [ 1; 2; 4; 8 ] in
  let drives = [ 1; 2; 4 ] in
  let plain =
    List.concat_map
      (fun bits ->
        List.map
          (fun drive ->
            let name = Printf.sprintf "DFF%d_X%d" bits drive in
            make_cell ~name ~func_class:"dff" ~bits ~drive ~scan:Cell.No_scan
              ~base_bit_area:1.6 ~base_ccap:0.8 ~scan_area_factor:1.0)
          drives)
      widths
  in
  let reset =
    List.concat_map
      (fun bits ->
        List.map
          (fun drive ->
            let name = Printf.sprintf "DFFR%d_X%d" bits drive in
            make_cell ~name ~func_class:"dffr" ~bits ~drive ~scan:Cell.No_scan
              ~base_bit_area:1.8 ~base_ccap:0.85 ~scan_area_factor:1.0)
          drives)
      widths
  in
  let scan_internal =
    List.concat_map
      (fun bits ->
        List.map
          (fun drive ->
            let name = Printf.sprintf "SDFFR%d_X%d" bits drive in
            make_cell ~name ~func_class:"sdffr" ~bits ~drive
              ~scan:Cell.Internal_scan ~base_bit_area:2.0 ~base_ccap:0.9
              ~scan_area_factor:1.15)
          drives)
      widths
  in
  (* Transparent-high latches: a separate functional class — the paper
     composes latches exactly like flops, just never across classes.
     Timing uses the same linear model (checked at the closing edge; no
     time borrowing, a documented conservative simplification). *)
  let latches =
    List.concat_map
      (fun bits ->
        List.map
          (fun drive ->
            let name = Printf.sprintf "DLAT%d_X%d" bits drive in
            make_cell ~name ~func_class:"dlat" ~bits ~drive ~scan:Cell.No_scan
              ~base_bit_area:1.3 ~base_ccap:0.7 ~scan_area_factor:1.0)
          drives)
      widths
  in
  (* Per-bit scan variants only exist for the multi-bit widths; the cell
     itself is slightly smaller than the internal-scan twin but costs
     external scan routing (penalized at mapping time). *)
  let scan_per_bit =
    List.concat_map
      (fun bits ->
        List.map
          (fun drive ->
            let name = Printf.sprintf "SDFFR%d_X%d_PB" bits drive in
            make_cell ~name ~func_class:"sdffr" ~bits ~drive
              ~scan:Cell.Per_bit_scan ~base_bit_area:2.0 ~base_ccap:0.9
              ~scan_area_factor:1.10)
          drives)
      [ 2; 4; 8 ]
  in
  Library.make (plain @ reset @ latches @ scan_internal @ scan_per_bit)

let paper_example () =
  let cell bits =
    make_cell
      ~name:(Printf.sprintf "EX_DFF%d" bits)
      ~func_class:"dff" ~bits ~drive:1 ~scan:Cell.No_scan ~base_bit_area:1.6
      ~base_ccap:0.8 ~scan_area_factor:1.0
  in
  Library.make (List.map cell [ 1; 2; 3; 4; 8 ])
