type 'a t = { mutable data : 'a option array; mutable len : int }

let create () = { data = Array.make 8 None; len = 0 }

let length t = t.len

let grow t =
  let cap = Array.length t.data in
  if t.len >= cap then begin
    let data = Array.make (2 * cap) None in
    Array.blit t.data 0 data 0 cap;
    t.data <- data
  end

let push t x =
  grow t;
  t.data.(t.len) <- Some x;
  t.len <- t.len + 1;
  t.len - 1

let check t i =
  if i < 0 || i >= t.len then invalid_arg "Vec: index out of range"

let get t i =
  check t i;
  match t.data.(i) with
  | Some x -> x
  | None -> assert false

let set t i x =
  check t i;
  t.data.(i) <- Some x

let iteri f t =
  for i = 0 to t.len - 1 do
    match t.data.(i) with Some x -> f i x | None -> assert false
  done

let iter f t = iteri (fun _ x -> f x) t

let fold f init t =
  let acc = ref init in
  iter (fun x -> acc := f !acc x) t;
  !acc

let to_list t = List.rev (fold (fun acc x -> x :: acc) [] t)

let of_list l =
  let t = create () in
  List.iter (fun x -> ignore (push t x)) l;
  t

let map_to_array f t =
  Array.init t.len (fun i -> f (get t i))

let suffix t from =
  let from = max 0 from in
  let acc = ref [] in
  for i = t.len - 1 downto from do
    acc := get t i :: !acc
  done;
  !acc
