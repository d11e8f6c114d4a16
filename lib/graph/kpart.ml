module Point = Mbr_geom.Point

let split_by_median ~position nodes =
  let pts = List.map (fun v -> (v, position v)) nodes in
  let xs = List.map (fun (_, (p : Point.t)) -> p.x) pts in
  let ys = List.map (fun (_, (p : Point.t)) -> p.y) pts in
  let spread vals =
    match vals with
    | [] -> 0.0
    | v :: rest ->
      let lo = List.fold_left Float.min v rest in
      let hi = List.fold_left Float.max v rest in
      hi -. lo
  in
  let use_x = spread xs >= spread ys in
  let key (_, (p : Point.t)) = if use_x then (p.x, p.y) else (p.y, p.x) in
  let sorted = List.stable_sort (fun a b -> compare (key a) (key b)) pts in
  let n = List.length sorted in
  let half = (n + 1) / 2 in
  let rec take k acc = function
    | rest when k = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | v :: rest -> take (k - 1) (v :: acc) rest
  in
  let left, right = take half [] sorted in
  (List.map fst left, List.map fst right)

let partition ?(bound = 30) g ~position =
  if bound < 1 then invalid_arg "Kpart.partition: bound < 1";
  let rec bisect nodes =
    if List.length nodes <= bound then [ nodes ]
    else begin
      let left, right = split_by_median ~position nodes in
      (* Median split always makes progress for n >= 2. *)
      bisect left @ bisect right
    end
  in
  List.concat_map
    (fun comp -> List.map (List.sort compare) (bisect comp))
    (Components.components g)
