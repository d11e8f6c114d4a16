let component_of g =
  let n = Csr.n_nodes g in
  let comp = Array.make n (-1) in
  let next = ref 0 in
  for v = 0 to n - 1 do
    if comp.(v) < 0 then begin
      let id = !next in
      incr next;
      let stack = ref [ v ] in
      comp.(v) <- id;
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | u :: rest ->
          stack := rest;
          Csr.iter_neighbors g u (fun w ->
              if comp.(w) < 0 then begin
                comp.(w) <- id;
                stack := w :: !stack
              end)
      done
    end
  done;
  comp

let components g =
  let comp = component_of g in
  let n = Array.length comp in
  let k = Array.fold_left (fun acc c -> max acc (c + 1)) 0 comp in
  let buckets = Array.make k [] in
  for v = n - 1 downto 0 do
    buckets.(comp.(v)) <- v :: buckets.(comp.(v))
  done;
  Array.to_list buckets
