(* A timing corner is a set of multiplicative derates on the linear
   delay model: cell delays (comb arcs + clk->q), wire delays, and
   setup requirements each get their own factor. The engine analyzes
   every corner of its active set against one shared topology; see
   DESIGN.md §15. *)

type t = { name : string; cell : float; wire : float; setup : float }

let typical = { name = "typical"; cell = 1.0; wire = 1.0; setup = 1.0 }

let slow = { name = "slow"; cell = 1.12; wire = 1.18; setup = 1.05 }

let fast = { name = "fast"; cell = 0.88; wire = 0.92; setup = 1.0 }

(* A deliberately punishing derate set for recovery-loop stress tests:
   wire-dominated paths stretch by half again, so MBR composition's
   displacement shows up as worst-corner violations. *)
let harsh = { name = "harsh"; cell = 1.30; wire = 1.50; setup = 1.20 }

let named = [ typical; slow; fast; harsh ]

let default = [| typical |]

let make ~name ~cell ~wire ~setup =
  if not (cell > 0.0 && wire > 0.0 && setup > 0.0) then
    invalid_arg "Corner.make: derate factors must be positive";
  { name; cell; wire; setup }

(* The designgen derate-profile knob: spread 0 is the single typical
   corner; a positive spread adds one wire-heavy slow corner whose
   factors scale with the spread (wire derates hardest — composition
   moves registers, and moved wire is what a corner disagreement is
   about). *)
let spread_set s =
  if s <= 0.0 then default
  else
    [|
      typical;
      {
        name = "derated";
        cell = 1.0 +. s;
        wire = 1.0 +. (1.5 *. s);
        setup = 1.0 +. (0.5 *. s);
      };
    |]

let to_string c =
  if List.exists (fun n -> n.name = c.name && n = c) named then c.name
  else Printf.sprintf "%s:%g:%g:%g" c.name c.cell c.wire c.setup

let set_to_string cs =
  String.concat "," (List.map to_string (Array.to_list cs))

let parse_one s =
  match String.split_on_char ':' s with
  | [ name ] -> (
    match List.find_opt (fun c -> c.name = name) named with
    | Some c -> Ok c
    | None ->
      Error
        (Printf.sprintf
           "unknown corner %S (expected one of %s, or name:cell:wire:setup)"
           name
           (String.concat ", " (List.map (fun c -> c.name) named))))
  | [ name; cell; wire; setup ] -> (
    match
      (float_of_string_opt cell, float_of_string_opt wire,
       float_of_string_opt setup)
    with
    | Some cell, Some wire, Some setup
      when cell > 0.0 && wire > 0.0 && setup > 0.0 ->
      Ok { name; cell; wire; setup }
    | _ ->
      Error
        (Printf.sprintf "corner %S: derates must be positive numbers" name))
  | _ ->
    Error (Printf.sprintf "cannot parse corner %S (want name or name:c:w:s)" s)

let parse_set s =
  let parts =
    List.filter (fun p -> p <> "") (String.split_on_char ',' (String.trim s))
  in
  if parts = [] then Error "empty corner set"
  else
    let rec go acc = function
      | [] -> Ok (Array.of_list (List.rev acc))
      | p :: rest -> (
        match parse_one (String.trim p) with
        | Ok c -> go (c :: acc) rest
        | Error m -> Error m)
    in
    go [] parts
