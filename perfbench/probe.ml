(* Host-speed probe. The benchmark's host swings between speed states
   about 1.5x apart that last seconds to minutes (README.md, "Host
   noise"), which no amount of work inside one run averages away. The
   probe times a fixed kernel that shares no code with the repository's
   libraries right before and right after each measured piece of work;
   the work's wall time is scaled by [nominal_s / probe time] to read as
   it would on the reference host. A change to the code under test moves
   the work but not the kernel, so it shows in full. *)

let mask = (1 lsl 20) - 1

let table = Array.init (mask + 1) (fun i -> (i * 7919) land mask)

(* Integer arithmetic and random reads over an 8 MB table, so both the
   core and the memory hierarchy are sampled. It does not allocate, so
   GC settings do not move it either. *)
let kernel () =
  let x = ref 0x2545F491 and acc = ref 0 in
  for _ = 1 to 500_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    acc := !acc + table.(!x land mask)
  done;
  Sys.opaque_identity !acc

(* The kernel's median time on the reference host (2 vCPU VM, 20 s of
   back-to-back samples: 2.5 ms fastest, 4.2 ms median, 4.9 ms p90),
   so scaled times read like typical measured ones. *)
let nominal_s = 0.004

(* Median of three kernel timings. *)
let sample () =
  let t () =
    let t0 = Mbr_obs.Clock.now_s () in
    ignore (kernel ());
    Mbr_obs.Clock.now_s () -. t0
  in
  let a = [| t (); t (); t () |] in
  Array.sort Float.compare a;
  a.(1)

(* [bracket f] runs [f] between two probe samples and returns its result
   with the scale factor for its wall time. *)
let bracket f =
  let p0 = sample () in
  let r = f () in
  let p1 = sample () in
  (r, nominal_s /. ((p0 +. p1) /. 2.0))
