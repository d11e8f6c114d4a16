(* Tests for Mbr_util.Pool: the fixed-size domain pool behind the
   parallel allocate stage. Determinism (results land in task order),
   the jobs = 1 serial degeneration, one-task claims, exception
   propagation, and a qcheck equivalence against Array.map. *)

module Pool = Mbr_util.Pool

let check = Alcotest.(check bool)

let checki = Alcotest.(check int)

let int_array = Alcotest.(array int)

let test_recommended_jobs () =
  check "at least one job" true (Pool.recommended_jobs () >= 1)

(* one meaning for a jobs count: 0 = every core, n >= 1 = n, negative
   or non-numeric = error *)
let test_resolve_jobs () =
  check "0 = recommended" true (Pool.resolve_jobs 0 = Ok (Pool.recommended_jobs ()));
  check "3 = 3" true (Pool.resolve_jobs 3 = Ok 3);
  check "-1 rejected" true (Result.is_error (Pool.resolve_jobs (-1)));
  check "parse 2" true (Pool.parse_jobs "2" = Ok 2);
  check "parse -3 rejected" true (Result.is_error (Pool.parse_jobs "-3"));
  check "parse x rejected" true (Result.is_error (Pool.parse_jobs "x"))

let test_empty () =
  List.iter
    (fun jobs ->
      checki
        (Printf.sprintf "empty array, jobs=%d" jobs)
        0
        (Array.length (Pool.map_array ~jobs (fun x -> x * 2) [||])))
    [ 1; 2; 8 ]

let test_tasks_exceed_jobs () =
  (* far more tasks than workers: the atomic index must hand out every
     task exactly once and every result must land in its own slot *)
  let n = 500 in
  let tasks = Array.init n (fun i -> i) in
  let expected = Array.map (fun i -> (i * i) + 1) tasks in
  List.iter
    (fun jobs ->
      Alcotest.check int_array
        (Printf.sprintf "%d tasks on %d jobs" n jobs)
        expected
        (Pool.map_array ~jobs (fun i -> (i * i) + 1) tasks))
    [ 2; 3; 4; 7 ]

let test_jobs_one_is_serial () =
  (* jobs = 1 must run on the calling domain, in index order, without
     spawning: observable as strictly sequential side effects *)
  let order = ref [] in
  let self = Domain.self () in
  let r =
    Pool.map_array ~jobs:1
      (fun i ->
        check "runs on the calling domain" true (Domain.self () = self);
        order := i :: !order;
        i * 3)
      (Array.init 20 (fun i -> i))
  in
  Alcotest.check int_array "results" (Array.init 20 (fun i -> i * 3)) r;
  Alcotest.(check (list int)) "index order" (List.init 20 (fun i -> 19 - i)) !order

let test_chunking () =
  (* tasks are claimed one at a time, so a worker never holds a task it
     has not started. With two jobs and two tasks, the task that runs
     first waits for the other one to start: only the other worker can
     start it. Were both tasks claimed together, the waiter would wait
     alone until the deadline. *)
  let started = Array.init 2 (fun _ -> Atomic.make false) in
  let deadline = Mbr_obs.Clock.now_s () +. 10. in
  let both_started () = Array.for_all Atomic.get started in
  let saw_other =
    Pool.map_array ~jobs:2
      (fun i ->
        Atomic.set started.(i) true;
        while (not (both_started ())) && Mbr_obs.Clock.now_s () < deadline do
          Domain.cpu_relax ()
        done;
        both_started ())
      [| 0; 1 |]
  in
  Alcotest.(check (array bool))
    "each task started while the other ran" [| true; true |] saw_other;
  (* a task count the job count does not divide *)
  let n = 101 in
  let tasks = Array.init n (fun i -> i) in
  Alcotest.check int_array "101 tasks on 3 jobs"
    (Array.map (fun i -> i + 7) tasks)
    (Pool.map_array ~jobs:3 (fun i -> i + 7) tasks)

exception Boom of int

let test_exception_propagation () =
  let tasks = Array.init 64 (fun i -> i) in
  List.iter
    (fun jobs ->
      match
        Pool.map_array ~jobs (fun i -> if i = 33 then raise (Boom i) else i) tasks
      with
      | _ -> Alcotest.fail "expected Boom to propagate"
      | exception Boom 33 -> ()
      | exception e ->
        Alcotest.failf "wrong exception: %s" (Printexc.to_string e))
    [ 1; 2; 4 ]

let test_exception_stops_pool () =
  (* after a failure no new tasks are claimed: with 1000 tasks and an
     immediate failure, far fewer than 1000 tasks run *)
  let ran = Atomic.make 0 in
  (match
     Pool.map_array ~jobs:2
       (fun i ->
         Atomic.incr ran;
         if i = 0 then failwith "early";
         i)
       (Array.init 1000 (fun i -> i))
   with
  | _ -> Alcotest.fail "expected failure"
  | exception Failure _ -> ());
  check "pool stopped early" true (Atomic.get ran < 1000)

let test_invalid_args () =
  match Pool.map_array ~jobs:0 Fun.id [| 1 |] with
  | _ -> Alcotest.fail "jobs=0 accepted"
  | exception Invalid_argument _ -> ()

let test_order_param () =
  (* a claim order changes only when tasks run, never where their
     results land: any permutation must reproduce Array.map exactly *)
  let n = 257 in
  let tasks = Array.init n (fun i -> i) in
  let f i = (i * 13) + 1 in
  let expected = Array.map f tasks in
  let rev = Array.init n (fun i -> n - 1 - i) in
  (* 101 is coprime to 257, so the stride walk is a permutation *)
  let shuffled = Array.init n (fun i -> i * 101 mod n) in
  List.iter
    (fun jobs ->
      Alcotest.check int_array
        (Printf.sprintf "reversed order, jobs=%d" jobs)
        expected
        (Pool.map_array ~order:rev ~jobs f tasks);
      Alcotest.check int_array
        (Printf.sprintf "shuffled order, jobs=%d" jobs)
        expected
        (Pool.map_array ~order:shuffled ~jobs f tasks))
    [ 1; 2; 4 ]

let test_invalid_order () =
  let tasks = [| 10; 20; 30 |] in
  let expect_invalid name ~jobs order =
    match Pool.map_array ~order ~jobs Fun.id tasks with
    | _ -> Alcotest.failf "%s accepted" name
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "wrong length" ~jobs:2 [| 0; 1 |];
  expect_invalid "duplicate index" ~jobs:2 [| 0; 0; 2 |];
  expect_invalid "out of range" ~jobs:2 [| 0; 1; 3 |];
  expect_invalid "negative index" ~jobs:2 [| 0; -1; 2 |];
  (* the serial path validates too, so a bad order cannot hide behind
     a jobs=1 configuration *)
  expect_invalid "serial path skipped validation" ~jobs:1 [| 0; 0; 2 |]

(* qcheck: pool = Array.map for arbitrary tasks/jobs *)
let prop_matches_array_map =
  QCheck2.Test.make ~count:200 ~name:"pool.map_array = Array.map"
    QCheck2.Gen.(pair (array_size (int_bound 200) int) (int_range 1 6))
    (fun (tasks, jobs) ->
      let f x = (x * 31) + 5 in
      Pool.map_array ~jobs f tasks = Array.map f tasks)

(* same equivalence with a non-trivial claim order *)
let prop_order_matches_array_map =
  QCheck2.Test.make ~count:200 ~name:"pool.map_array ?order = Array.map"
    QCheck2.Gen.(pair (array_size (int_bound 200) int) (int_range 1 6))
    (fun (tasks, jobs) ->
      let n = Array.length tasks in
      let order = Array.init n (fun i -> n - 1 - i) in
      let f x = (x * 17) + 3 in
      Pool.map_array ~order ~jobs f tasks = Array.map f tasks)

(* ---- Executor ---- *)

let test_exec_runs_everything () =
  let exec = Pool.Executor.create ~workers:4 () in
  let hits = Atomic.make 0 in
  for _ = 1 to 500 do
    Pool.Executor.submit exec (fun () -> Atomic.incr hits)
  done;
  Pool.Executor.shutdown exec;
  checki "every job ran before shutdown returned" 500 (Atomic.get hits)

let test_exec_job_exception_contained () =
  (* a raising job must not kill its worker or poison the queue *)
  let exec = Pool.Executor.create ~workers:2 () in
  let hits = Atomic.make 0 in
  for i = 1 to 100 do
    Pool.Executor.submit exec (fun () ->
        if i mod 3 = 0 then failwith "job bug";
        Atomic.incr hits)
  done;
  Pool.Executor.shutdown exec;
  checki "non-raising jobs all ran" 67 (Atomic.get hits)

let test_exec_submit_after_shutdown () =
  let exec = Pool.Executor.create ~workers:1 () in
  Pool.Executor.shutdown exec;
  Pool.Executor.shutdown exec (* idempotent *);
  check "submit after shutdown raises" true
    (match Pool.Executor.submit exec (fun () -> ()) with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_exec_invalid_workers () =
  check "workers < 1 rejected" true
    (match Pool.Executor.create ~workers:0 () with
    | _ -> false
    | exception Invalid_argument _ -> true);
  let exec = Pool.Executor.create ~workers:1 () in
  checki "worker count" 1 (Pool.Executor.workers exec);
  Pool.Executor.shutdown exec

let test_exec_concurrent_submitters () =
  (* several domains feeding one executor: nothing lost, nothing run
     twice (the sum is exact, not just the count) *)
  let exec = Pool.Executor.create ~workers:3 () in
  let sum = Atomic.make 0 in
  let feeder base () =
    for i = 1 to 100 do
      Pool.Executor.submit exec (fun () ->
          ignore (Atomic.fetch_and_add sum (base + i)))
    done
  in
  let ds = Array.init 4 (fun k -> Domain.spawn (feeder (k * 1000))) in
  Array.iter Domain.join ds;
  Pool.Executor.shutdown exec;
  let expected =
    (* sum over k of sum over i of (1000k + i) *)
    (1000 * 100 * (0 + 1 + 2 + 3)) + (4 * (100 * 101 / 2))
  in
  checki "exact sum" expected (Atomic.get sum)

let () =
  Alcotest.run "mbr_util.pool"
    [
      ( "pool",
        [
          Alcotest.test_case "recommended jobs" `Quick test_recommended_jobs;
          Alcotest.test_case "resolve jobs" `Quick test_resolve_jobs;
          Alcotest.test_case "empty array" `Quick test_empty;
          Alcotest.test_case "tasks > jobs" `Quick test_tasks_exceed_jobs;
          Alcotest.test_case "jobs=1 serial" `Quick test_jobs_one_is_serial;
          Alcotest.test_case "chunking" `Quick test_chunking;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagation;
          Alcotest.test_case "exception stops pool" `Quick
            test_exception_stops_pool;
          Alcotest.test_case "invalid args" `Quick test_invalid_args;
          Alcotest.test_case "claim order" `Quick test_order_param;
          Alcotest.test_case "invalid claim order" `Quick test_invalid_order;
        ] );
      ( "executor",
        [
          Alcotest.test_case "runs everything" `Quick test_exec_runs_everything;
          Alcotest.test_case "job exception contained" `Quick
            test_exec_job_exception_contained;
          Alcotest.test_case "submit after shutdown" `Quick
            test_exec_submit_after_shutdown;
          Alcotest.test_case "invalid workers" `Quick test_exec_invalid_workers;
          Alcotest.test_case "concurrent submitters" `Quick
            test_exec_concurrent_submitters;
        ] );
      ( "qcheck",
        [
          QCheck_alcotest.to_alcotest prop_matches_array_map;
          QCheck_alcotest.to_alcotest prop_order_matches_array_map;
        ] );
    ]
