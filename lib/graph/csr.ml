(* Packed-edge representation: each directed arc (i -> j) is a single
   int (i lsl 31) lor j, so the whole edge list sorts row-major with one
   int-array sort and the CSR slices fall out of a linear scan. The
   31-bit shift caps nodes at 2^31 - 1 on 64-bit (checked in create). *)

let max_nodes = 1 lsl 31

let pack i j = (i lsl 31) lor j

let unpack_col p = p land (max_nodes - 1)

type t = { n : int; row_ptr : int array; cols : int array }

let n_nodes t = t.n

let n_edges t = t.row_ptr.(t.n) / 2

let check t i = if i < 0 || i >= t.n then invalid_arg "Csr: node out of range"

let degree t i =
  check t i;
  t.row_ptr.(i + 1) - t.row_ptr.(i)

let has_edge t a b =
  check t a;
  check t b;
  if a = b then false
  else begin
    (* search the smaller row *)
    let a, b =
      if t.row_ptr.(a + 1) - t.row_ptr.(a) <= t.row_ptr.(b + 1) - t.row_ptr.(b)
      then (a, b)
      else (b, a)
    in
    let lo = ref t.row_ptr.(a) and hi = ref t.row_ptr.(a + 1) in
    let found = ref false in
    while (not !found) && !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      let c = t.cols.(mid) in
      if c = b then found := true
      else if c < b then lo := mid + 1
      else hi := mid
    done;
    !found
  end

let iter_neighbors t i f =
  check t i;
  for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
    f t.cols.(k)
  done

let fold_neighbors t i f init =
  check t i;
  let acc = ref init in
  for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
    acc := f !acc t.cols.(k)
  done;
  !acc

let neighbors t i =
  check t i;
  let acc = ref [] in
  for k = t.row_ptr.(i + 1) - 1 downto t.row_ptr.(i) do
    acc := t.cols.(k) :: !acc
  done;
  !acc

let edges t =
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    for k = t.row_ptr.(i + 1) - 1 downto t.row_ptr.(i) do
      let j = t.cols.(k) in
      if i < j then acc := (i, j) :: !acc
    done
  done;
  !acc

let is_clique t nodes =
  let rec go = function
    | [] | [ _ ] -> true
    | v :: rest -> List.for_all (fun w -> has_edge t v w) rest && go rest
  in
  go nodes

module Builder = struct
  type b = { bn : int; mutable arcs : int array; mutable len : int }

  let create n =
    if n < 0 || n >= max_nodes then invalid_arg "Csr.Builder.create";
    { bn = n; arcs = Array.make 64 0; len = 0 }

  let push b p =
    if b.len >= Array.length b.arcs then begin
      let arcs = Array.make (2 * Array.length b.arcs) 0 in
      Array.blit b.arcs 0 arcs 0 b.len;
      b.arcs <- arcs
    end;
    b.arcs.(b.len) <- p;
    b.len <- b.len + 1

  let add_edge b i j =
    if i < 0 || i >= b.bn || j < 0 || j >= b.bn then
      invalid_arg "Csr.Builder.add_edge: node out of range";
    if i = j then invalid_arg "Csr.Builder.add_edge: self-loop";
    push b (pack i j);
    push b (pack j i)

  let finish b =
    let arcs = Array.sub b.arcs 0 b.len in
    Array.sort Int.compare arcs;
    (* dedup in place: duplicate undirected inserts collapse here *)
    let k = ref 0 in
    Array.iteri
      (fun idx p ->
        if idx = 0 || arcs.(!k - 1) <> p then begin
          arcs.(!k) <- p;
          incr k
        end)
      arcs;
    let m2 = !k in
    let row_ptr = Array.make (b.bn + 1) 0 in
    for idx = 0 to m2 - 1 do
      let i = arcs.(idx) lsr 31 in
      row_ptr.(i + 1) <- row_ptr.(i + 1) + 1
    done;
    for i = 0 to b.bn - 1 do
      row_ptr.(i + 1) <- row_ptr.(i + 1) + row_ptr.(i)
    done;
    let cols = Array.make m2 0 in
    for idx = 0 to m2 - 1 do
      cols.(idx) <- unpack_col arcs.(idx)
    done;
    { n = b.bn; row_ptr; cols }
end

let induced t nodes =
  let k = Array.length nodes in
  let index = Hashtbl.create k in
  Array.iteri
    (fun i v ->
      check t v;
      if Hashtbl.mem index v then invalid_arg "Csr.induced: duplicate node";
      Hashtbl.add index v i)
    nodes;
  let b = Builder.create k in
  Array.iteri
    (fun i v ->
      iter_neighbors t v (fun w ->
          match Hashtbl.find_opt index w with
          | Some j when i < j -> Builder.add_edge b i j
          | Some _ | None -> ()))
    nodes;
  Builder.finish b

