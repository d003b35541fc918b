(* Fixed-size domain pool.  See pool.mli for the contract; the invariant
   that makes determinism work is that a batch's [run] callback is the
   only thing workers execute, it never raises (map wraps every task in a
   result), and each invocation writes only the slot for its own index. *)

type batch = {
  run : worker:int -> int -> unit;
  total : int;
  mutable next : int;  (* first unclaimed task index *)
  mutable completed : int;
}

type t = {
  n_jobs : int;
  mutex : Mutex.t;
  work_available : Condition.t;
  work_done : Condition.t;
  mutable batch : batch option;
  mutable generation : int;  (* bumped per submitted batch *)
  mutable busy : bool;  (* a batch is executing: reject nested maps *)
  mutable stopped : bool;
  mutable workers : unit Domain.t array;
}

let jobs t = t.n_jobs

(* Pull tasks off [b] until none remain, running each with the mutex
   released.  Mutex held on entry and on exit. *)
let drain t b ~worker =
  let continue_ = ref true in
  while !continue_ do
    if b.next >= b.total then continue_ := false
    else begin
      let i = b.next in
      b.next <- i + 1;
      Mutex.unlock t.mutex;
      b.run ~worker i;
      Mutex.lock t.mutex;
      b.completed <- b.completed + 1;
      if b.completed = b.total then begin
        t.batch <- None;
        Condition.broadcast t.work_done
      end
    end
  done

let rec worker_loop t ~worker ~last_gen =
  Mutex.lock t.mutex;
  while (not t.stopped) && (t.generation = last_gen || t.batch = None) do
    Condition.wait t.work_available t.mutex
  done;
  if t.stopped then Mutex.unlock t.mutex
  else begin
    let gen = t.generation in
    (match t.batch with Some b -> drain t b ~worker | None -> ());
    Mutex.unlock t.mutex;
    worker_loop t ~worker ~last_gen:gen
  end

let create ~jobs =
  let n_jobs = max 1 jobs in
  let t =
    {
      n_jobs;
      mutex = Mutex.create ();
      work_available = Condition.create ();
      work_done = Condition.create ();
      batch = None;
      generation = 0;
      busy = false;
      stopped = false;
      workers = [||];
    }
  in
  t.workers <-
    Array.init (n_jobs - 1) (fun w ->
        Domain.spawn (fun () -> worker_loop t ~worker:(w + 1) ~last_gen:0));
  t

let run_batch t ~run ~total =
  if total = 0 then ()
  else if t.n_jobs = 1 || total = 1 then begin
    if t.stopped then invalid_arg "Pool: map after shutdown";
    if t.busy then invalid_arg "Pool: nested map";
    t.busy <- true;
    Fun.protect
      ~finally:(fun () -> t.busy <- false)
      (fun () ->
        for i = 0 to total - 1 do
          run ~worker:0 i
        done)
  end
  else begin
    Mutex.lock t.mutex;
    if t.stopped then begin
      Mutex.unlock t.mutex;
      invalid_arg "Pool: map after shutdown"
    end;
    if t.busy then begin
      Mutex.unlock t.mutex;
      invalid_arg "Pool: nested map"
    end;
    t.busy <- true;
    let b = { run; total; next = 0; completed = 0 } in
    t.batch <- Some b;
    t.generation <- t.generation + 1;
    Condition.broadcast t.work_available;
    (* The submitting domain is worker 0: it drains alongside the spawned
       domains, then blocks until stragglers finish their last task. *)
    drain t b ~worker:0;
    while b.completed < b.total do
      Condition.wait t.work_done t.mutex
    done;
    t.busy <- false;
    Mutex.unlock t.mutex
  end

(* One lazily-created local value per worker slot, owned by the pool's
   lifetime rather than one map.  Slot [w] is only ever read or written
   by the domain acting as worker [w] while a batch runs, and batches are
   serialized under the pool mutex, so the array needs no further
   synchronization. *)
type 'w locals = { owner : t; make : unit -> 'w; slots : 'w option array }

let locals t make = { owner = t; make; slots = Array.make t.n_jobs None }

let map_local t locals f total =
  if locals.owner != t then invalid_arg "Pool.map_local: locals of another pool";
  if total < 0 then invalid_arg "Pool.map: negative task count";
  let results =
    Array.make total
      (Error (Failure "Pool.map: slot never written", Printexc.get_callstack 0))
  in
  let run ~worker i =
    let w =
      match locals.slots.(worker) with
      | Some w -> w
      | None ->
        let w = locals.make () in
        locals.slots.(worker) <- Some w;
        w
    in
    (* Capture the backtrace at the raise site, on the worker domain:
       the submitting domain re-raises (or reports) with it, so a
       failing task says where it died, not where it was joined. *)
    results.(i) <- (try Ok (f w i) with e -> Error (e, Printexc.get_raw_backtrace ()))
  in
  run_batch t ~run ~total;
  results

let map t f total = map_local t (locals t ignore) (fun () i -> f i) total

let shutdown t =
  Mutex.lock t.mutex;
  if t.stopped then Mutex.unlock t.mutex
  else begin
    t.stopped <- true;
    Condition.broadcast t.work_available;
    Mutex.unlock t.mutex;
    Array.iter Domain.join t.workers
  end

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let default_jobs () =
  match Sys.getenv_opt "ORACLE_SIZE_JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n -> max 1 n
    | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()
