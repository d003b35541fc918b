(* Process and host readings: CPU time, high-water RSS, hypervisor
   steal, and the reference kernel that measures the host's speed. *)

let cpu = Sys.time

(* [key:   1234 kB] from /proc/self/status, in kB; 0 when absent. *)
let status_kb key =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0
      | line -> (
        match String.split_on_char ':' line with
        | [ k; v ] when k = key -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> Option.value (int_of_string_opt kb) ~default:0
          | [] -> 0)
        | _ -> scan ())
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

let peak_rss_mb () = float_of_int (status_kb "VmHWM") /. 1024.

(* Steal ticks of the aggregate "cpu" line of /proc/stat (8th field):
   time the hypervisor ran something else while this guest wanted the
   CPU.  0 when the file is unreadable. *)
let steal_ticks () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> 0
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        match String.split_on_char ' ' (input_line ic) |> List.filter (( <> ) "") with
        | "cpu" :: fields when List.length fields >= 8 ->
          Option.value (int_of_string_opt (List.nth fields 7)) ~default:0
        | _ | (exception End_of_file) -> 0)

(* A fixed integer loop with no memory traffic, the median of five
   runs: a diagnostic of the clock rate the host gives this process. *)
let alu_seconds () =
  let once () =
    let t0 = Unix.gettimeofday () in
    let x = ref 0 in
    for i = 1 to 20_000_000 do
      x := ((!x * 1103515245) + i) land 0xffffff
    done;
    ignore (Sys.opaque_identity !x);
    Unix.gettimeofday () -. t0
  in
  let a = Array.init 5 (fun _ -> once ()) in
  Array.sort compare a;
  a.(2)

(* {1 Host speed}

   A shared host runs the same code up to half again as slow in one
   period as in another.  A fixed reference kernel, timed before every
   set-up and pass, measures that speed, and the end-to-end times are
   scaled by it (see [Workloads.run]).  The kernel is code of the benchmark's own,
   so a change to the repository's code cannot move it. *)

module Int_map = Map.Make (Int)

(* 150 000 insertions of pseudo-random keys into a balanced map: the
   allocation, garbage collection and pointer chasing that the
   workloads' OCaml code does too.  Returns its wall and CPU time. *)
let reference_kernel () =
  let rng = Random.State.make [| 1 |] in
  let t0 = Unix.gettimeofday () and c0 = cpu () in
  let m = ref Int_map.empty in
  for _ = 1 to 150_000 do
    m := Int_map.add (Random.State.int rng 1_000_000) () !m
  done;
  ignore (Sys.opaque_identity (Int_map.cardinal !m));
  (Unix.gettimeofday () -. t0, cpu () -. c0)

(* The kernel runs in a child process, [exe --reference], so that its
   garbage collector never scans the workload's heap.  The child runs
   the kernel once to grow its heap, then once more for every byte it
   reads, answering each with the times; it exits at end of input. *)
let serve_reference () =
  ignore (reference_kernel ());
  try
    while true do
      ignore (input_char stdin);
      let wall, cpu = reference_kernel () in
      Printf.printf "%.9f %.9f\n%!" wall cpu
    done
  with End_of_file -> ()

type reference = { pid : int; requests : out_channel; answers : in_channel }

let start_reference exe =
  let child_in, requests = Unix.pipe ~cloexec:true () in
  let answers, child_out = Unix.pipe ~cloexec:true () in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close child_in;
        Unix.close child_out)
      (fun () -> Unix.create_process exe [| exe; "--reference" |] child_in child_out Unix.stderr)
  in
  {
    pid;
    requests = Unix.out_channel_of_descr requests;
    answers = Unix.in_channel_of_descr answers;
  }

let reference_sample r =
  output_char r.requests 'x';
  flush r.requests;
  let line = input_line r.answers in
  try Scanf.sscanf line "%f %f%!" (fun wall cpu -> (wall, cpu))
  with Scanf.Scan_failure _ | Failure _ | End_of_file ->
    failwith ("reference kernel: unreadable answer " ^ line)

(* Closing the requests ends the child's input; then wait for it. *)
let stop_reference r =
  close_out_noerr r.requests;
  close_in_noerr r.answers;
  ignore (Unix.waitpid [] r.pid)
