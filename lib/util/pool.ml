let recommended_jobs () = max 1 (Domain.recommended_domain_count ())

let resolve_jobs n =
  if n > 0 then Ok n
  else if n = 0 then Ok (recommended_jobs ())
  else Error (Printf.sprintf "expected a jobs count >= 0 (0 = every core), got %d" n)

let parse_jobs s =
  match int_of_string_opt s with
  | Some n -> resolve_jobs n
  | None -> Error (Printf.sprintf "expected a jobs count, got %S" s)

(* Telemetry: worker spans make the fan-out visible as one lane per
   domain in a Chrome trace; the counters price the scheduling. All
   no-ops while the obs layer is disabled. *)
let m_maps = Mbr_obs.Metrics.counter "pool.maps"

let m_tasks = Mbr_obs.Metrics.counter "pool.tasks"

let map_array ?order ~jobs f tasks =
  if jobs < 1 then invalid_arg "Pool.map_array: jobs < 1";
  let n = Array.length tasks in
  (match order with
  | None -> ()
  | Some o ->
    if Array.length o <> n then
      invalid_arg "Pool.map_array: order length <> number of tasks";
    let seen = Array.make n false in
    Array.iter
      (fun i ->
        if i < 0 || i >= n || seen.(i) then
          invalid_arg "Pool.map_array: order is not a permutation";
        seen.(i) <- true)
      o);
  if jobs = 1 || n <= 1 then Array.map f tasks
  else begin
    Mbr_obs.Metrics.incr m_maps;
    Mbr_obs.Metrics.incr ~by:n m_tasks;
    let results = Array.make n None in
    let next = Atomic.make 0 in
    (* the atomic index walks claim positions; [order] maps a position
       back to the task it names, so results still land in task slots *)
    let task_of = match order with None -> Fun.id | Some o -> fun p -> o.(p) in
    (* first failure wins; its presence also stops further claims *)
    let failure = Atomic.make None in
    let worker () =
      Mbr_obs.Trace.with_span ~name:"pool.worker" (fun () ->
      let continue = ref true in
      while !continue do
        let p = Atomic.fetch_and_add next 1 in
        if p >= n || Atomic.get failure <> None then continue := false
        else begin
          try
            let i = task_of p in
            results.(i) <- Some (f tasks.(i))
          with e ->
            let bt = Printexc.get_raw_backtrace () in
            ignore (Atomic.compare_and_set failure None (Some (e, bt)));
            continue := false
        end
      done)
    in
    let spawned = Array.init (min (jobs - 1) (n - 1)) (fun _ -> Domain.spawn worker) in
    (* the calling domain is worker number [jobs] *)
    worker ();
    Array.iter Domain.join spawned;
    match Atomic.get failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None ->
      Array.map (function Some v -> v | None -> assert false) results
  end

module Executor = struct
  type t = {
    mutex : Mutex.t;
    nonempty : Condition.t;
    queue : (unit -> unit) Queue.t;
    mutable stopping : bool;
    mutable domains : unit Domain.t array;
    n_workers : int;
  }

  let m_submitted = Mbr_obs.Metrics.counter "pool.exec.submitted"

  let m_completed = Mbr_obs.Metrics.counter "pool.exec.completed"

  let m_failed = Mbr_obs.Metrics.counter "pool.exec.failed"

  (* Workers block on the condition until a job or the stop flag shows
     up; on stop they drain what is already queued, then exit — so
     shutdown never drops accepted work. A job that raises is the
     submitter's bug: the exception is counted, reported on stderr and
     swallowed, because one bad job must not take a long-lived worker
     (and every job queued behind it) down with it. *)
  let worker t () =
    Mbr_obs.Trace.with_span ~name:"pool.exec.worker" (fun () ->
        let rec loop () =
          Mutex.lock t.mutex;
          while Queue.is_empty t.queue && not t.stopping do
            Condition.wait t.nonempty t.mutex
          done;
          match Queue.take_opt t.queue with
          | None -> Mutex.unlock t.mutex (* stopping, and fully drained *)
          | Some job ->
            Mutex.unlock t.mutex;
            (try
               job ();
               Mbr_obs.Metrics.incr m_completed
             with e ->
               Mbr_obs.Metrics.incr m_failed;
               Printf.eprintf "Pool.Executor: job raised %s\n%!"
                 (Printexc.to_string e));
            loop ()
        in
        loop ())

  let create ~workers () =
    if workers < 1 then invalid_arg "Pool.Executor.create: workers < 1";
    let t =
      {
        mutex = Mutex.create ();
        nonempty = Condition.create ();
        queue = Queue.create ();
        stopping = false;
        domains = [||];
        n_workers = workers;
      }
    in
    t.domains <- Array.init workers (fun _ -> Domain.spawn (worker t));
    t

  let workers t = t.n_workers

  let queue_depth t =
    Mutex.lock t.mutex;
    let n = Queue.length t.queue in
    Mutex.unlock t.mutex;
    n

  let submit t job =
    Mutex.lock t.mutex;
    if t.stopping then begin
      Mutex.unlock t.mutex;
      invalid_arg "Pool.Executor.submit: executor is shut down"
    end;
    Queue.add job t.queue;
    Mbr_obs.Metrics.incr m_submitted;
    Condition.signal t.nonempty;
    Mutex.unlock t.mutex

  let shutdown t =
    Mutex.lock t.mutex;
    let first = not t.stopping in
    t.stopping <- true;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.mutex;
    if first then Array.iter Domain.join t.domains
end
