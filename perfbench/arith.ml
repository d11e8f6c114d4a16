(* The benchmark's own arithmetic: order statistics, the tail rule,
   span self time and ratios. Pure functions, unit-tested. *)

let sorted_copy xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between the two middle ranks. *)
let median xs = Mbr_util.Stats.percentile xs 50.0

(* ---- the tail rule ---- *)

type tail = {
  value : float;  (** the latency at the tail rank *)
  pct : float;  (** which percentile that rank is *)
  beyond : int;  (** ops slower than it *)
  n : int;  (** ops in the sample *)
}

let min_beyond = 10

(* The highest percentile that still has [min_beyond] ops beyond it:
   the (n - 10)-th smallest of n ops, which is the 100 (n - 10) / n-th
   percentile. Up to 21 ops that rank is at or under the median's, so
   there is no tail to report. *)
let tail xs =
  let n = Array.length xs in
  let k = n - min_beyond in
  if 2 * k <= n + 1 then None
  else
    let s = sorted_copy xs in
    Some
      {
        value = s.(k - 1);
        pct = 100.0 *. float_of_int k /. float_of_int n;
        beyond = n - k;
        n;
      }

(* ---- self time ---- *)

(* Length of the union of [lo, hi) intervals. *)
let union_length intervals =
  let sorted =
    List.sort compare (List.filter (fun (lo, hi) -> hi > lo) intervals)
  in
  let total, cur =
    List.fold_left
      (fun (total, cur) (lo, hi) ->
        match cur with
        | None -> (total, Some (lo, hi))
        | Some (clo, chi) ->
          if lo <= chi then (total, Some (clo, Float.max chi hi))
          else (total +. (chi -. clo), Some (lo, hi)))
      (0.0, None) sorted
  in
  match cur with None -> total | Some (lo, hi) -> total +. (hi -. lo)

(* A span's duration minus the part of it its children cover. Children
   may overlap each other and stick out of the parent; only their union
   inside the parent counts. *)
let self_time ~start ~stop children =
  let clipped =
    List.map (fun (lo, hi) -> (Float.max lo start, Float.min hi stop)) children
  in
  (stop -. start) -. union_length clipped

(* ---- spans from a Chrome trace ---- *)

type span = {
  name : string;
  tid : int;
  start_us : float;
  stop_us : float;
  parent : int;  (** index of the enclosing span on the same tid, -1 at top *)
  args : (string * Mbr_obs.Json.t) list;
}

let dur_us s = s.stop_us -. s.start_us

(* Pair B/E events per thread id with a stack (the tracer guarantees
   stack discipline per domain). Unclosed spans are dropped. *)
let spans_of_trace json =
  let module J = Mbr_obs.Json in
  let events =
    match Option.bind (J.member "traceEvents" json) J.to_list with
    | Some l -> l
    | None -> []
  in
  let spans = ref [] in
  let n = ref 0 in
  let stacks : (int, (int * span) list) Hashtbl.t = Hashtbl.create 8 in
  let num k e = Option.bind (J.member k e) J.to_float in
  List.iter
    (fun e ->
      let ph = Option.bind (J.member "ph" e) J.to_str in
      let tid = int_of_float (Option.value (num "tid" e) ~default:0.0) in
      let ts = Option.value (num "ts" e) ~default:0.0 in
      let stack = Option.value (Hashtbl.find_opt stacks tid) ~default:[] in
      match ph with
      | Some "B" ->
        let name = Option.value (Option.bind (J.member "name" e) J.to_str) ~default:"" in
        let args =
          match J.member "args" e with Some (J.Obj a) -> a | _ -> []
        in
        let parent = match stack with (i, _) :: _ -> i | [] -> -1 in
        let s = { name; tid; start_us = ts; stop_us = ts; parent; args } in
        Hashtbl.replace stacks tid ((!n, s) :: stack);
        incr n
      | Some "E" -> (
        match stack with
        | (i, s) :: rest ->
          spans := (i, { s with stop_us = ts }) :: !spans;
          Hashtbl.replace stacks tid rest
        | [] -> ())
      | _ -> ())
    events;
  (* re-index densely in open order; parents refer to open indices *)
  let closed = List.sort compare !spans in
  let index = Hashtbl.create (List.length closed) in
  List.iteri (fun j (i, _) -> Hashtbl.replace index i j) closed;
  Array.of_list
    (List.map
       (fun (_, s) ->
         {
           s with
           parent =
             (match Hashtbl.find_opt index s.parent with
             | Some j -> j
             | None -> -1);
         })
       closed)

(* Self time of every span, in µs, indexed like the span array. *)
let self_times spans =
  let children = Array.make (Array.length spans) [] in
  Array.iter
    (fun s ->
      if s.parent >= 0 then
        children.(s.parent) <- (s.start_us, s.stop_us) :: children.(s.parent))
    spans;
  Array.mapi
    (fun i s -> self_time ~start:s.start_us ~stop:s.stop_us children.(i))
    spans

(* Sum of durations (µs) of the spans called [name]. *)
let total_us spans name =
  Array.fold_left
    (fun acc s -> if s.name = name then acc +. dur_us s else acc)
    0.0 spans

(* ---- ratios ---- *)

let ratio ~num ~den = if den = 0.0 then 0.0 else num /. den

(* Fill in every ratio of [Schema.ratios] from its bases in [values]. *)
let with_ratios values =
  let get k = Option.value (List.assoc_opt k values) ~default:0.0 in
  let sum = List.fold_left (fun acc k -> acc +. get k) 0.0 in
  List.map
    (fun (name, v) ->
      match List.find_opt (fun (r, _, _) -> r = name) Schema.ratios with
      | Some (_, num, den) -> (name, ratio ~num:(sum num) ~den:(sum den))
      | None -> (name, v))
    values
