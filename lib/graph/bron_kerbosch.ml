module Int_set = Set.Make (Int)

(* Smallest-last order: repeatedly remove a minimum-degree node.
   Buckets by current degree with lazy deletion, O(n + m). *)
let degeneracy_order g =
  let n = Csr.n_nodes g in
  let deg = Array.init n (Csr.degree g) in
  let removed = Array.make n false in
  let order = Array.make n 0 in
  let max_deg = Array.fold_left max 0 deg in
  let buckets = Array.make (max_deg + 1) [] in
  for i = 0 to n - 1 do
    buckets.(deg.(i)) <- i :: buckets.(deg.(i))
  done;
  for k = 0 to n - 1 do
    (* the first live node of the lowest non-empty bucket *)
    let rec next d =
      match buckets.(d) with
      | [] -> next (d + 1)
      | v :: rest ->
        buckets.(d) <- rest;
        if removed.(v) || deg.(v) <> d then next d else v
    in
    let v = next 0 in
    removed.(v) <- true;
    order.(k) <- v;
    Csr.iter_neighbors g v (fun w ->
        if not removed.(w) then begin
          deg.(w) <- deg.(w) - 1;
          buckets.(deg.(w)) <- w :: buckets.(deg.(w))
        end)
  done;
  order

(* Bron-Kerbosch with pivoting:
   BK(R, P, X): if P and X empty, report R.
   Choose pivot u in P ∪ X maximizing |P ∩ N(u)|; iterate v over
   P \ N(u): BK(R+v, P ∩ N(v), X ∩ N(v)); move v from P to X. *)
let iter_cliques g f =
  let n = Csr.n_nodes g in
  let adj = Array.init n (fun i -> Int_set.of_list (Csr.neighbors g i)) in
  let rec bk r p x =
    if Int_set.is_empty p && Int_set.is_empty x then f r
    else begin
      let candidates_for_pivot = Int_set.union p x in
      let pivot =
        Int_set.fold
          (fun u best ->
            let score = Int_set.cardinal (Int_set.inter p adj.(u)) in
            match best with
            | Some (_, s) when s >= score -> best
            | Some _ | None -> Some (u, score))
          candidates_for_pivot None
      in
      let expand =
        match pivot with
        | Some (u, _) -> Int_set.diff p adj.(u)
        | None -> p
      in
      let p = ref p and x = ref x in
      Int_set.iter
        (fun v ->
          bk (v :: r) (Int_set.inter !p adj.(v)) (Int_set.inter !x adj.(v));
          p := Int_set.remove v !p;
          x := Int_set.add v !x)
        expand
    end
  in
  (* Degeneracy-ordered outer level keeps recursion shallow on sparse
     graphs. *)
  let order = degeneracy_order g in
  let pos = Array.make n 0 in
  Array.iteri (fun k v -> pos.(v) <- k) order;
  Array.iter
    (fun v ->
      let later, earlier =
        Int_set.partition (fun w -> pos.(w) > pos.(v)) adj.(v)
      in
      bk [ v ] later earlier)
    order

let maximal_cliques g =
  let acc = ref [] in
  iter_cliques g (fun clique -> acc := List.sort compare clique :: !acc);
  List.sort compare !acc

let max_clique_size g =
  let best = ref 0 in
  iter_cliques g (fun clique -> best := max !best (List.length clique));
  !best

let count_maximal_cliques g =
  let k = ref 0 in
  iter_cliques g (fun _ -> incr k);
  !k
