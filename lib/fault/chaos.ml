(* Deterministic chaos schedules for distributed sweep workers.

   A chaos spec names which worker misbehaves, how, and when — counted
   in tasks that worker has completed, not wall-clock — so a given spec
   reproduces the same fault at the same point of the same worker's
   task stream on every run.  That is what lets the CI gate assert
   byte-identical sweep output across chaos schedules: the faults are
   real (processes die, pipes carry garbage, sockets fall silent or
   dribble bytes) but their placement is a pure function of the spec.

   Two fault families share the grammar.  Process faults (kill, hang,
   garbage) terminate the worker and are handled inside Worker.serve_io.
   Network faults degrade the worker's *transport*: partition falls
   silent with the connection open (the supervisor must tell a dead
   peer from a slow link by its heartbeat deadline), delay stalls the
   next write once, trickle makes every later write go out one byte at
   a time.  Delay and trickle act through a Sim.Transport.Shim.state
   threaded into [hook] — on a pipe worker, where there is no shim,
   they are consumed without effect.  None of the network faults alters
   stream *content*, so every schedule is byte-identity-preserving by
   construction.

   The spec grammar mirrors Fault_plan's comma-token style, lifted one
   level: directives are ';'-separated, each "ACTION:worker=N,after=M"
   with per-action optional arguments, plus an optional standalone
   "seed=N" token for the garbage bytes.  Example:
   "partition:worker=0,after=2,for=1500;trickle:worker=1,after=0". *)

type action = Kill | Hang | Garbage | Partition | Delay | Slow | Trickle

type directive = { action : action; worker : int; after : int; arg : int }

type t = { directives : directive list; seed : int }

let none = { directives = []; seed = 0 }

let is_none t = t.directives = []

(* Default fault arguments, in milliseconds.  A partition must outlast
   the CI gates' 1-second --heartbeat-timeout to demonstrate
   condemnation-and-rejoin; a delay must not, so it reads as a slow
   link. *)
let default_partition_ms = 3000
let default_delay_ms = 25
let default_slow_ms = 25

let action_name = function
  | Kill -> "kill"
  | Hang -> "hang"
  | Garbage -> "garbage"
  | Partition -> "partition"
  | Delay -> "delay"
  | Slow -> "slow"
  | Trickle -> "trickle"

let to_string t =
  if is_none t && t.seed = 0 then "none"
  else
    let parts =
      List.map
        (fun d ->
          let base =
            Printf.sprintf "%s:worker=%d,after=%d" (action_name d.action) d.worker d.after
          in
          match d.action with
          | Kill | Hang | Garbage | Trickle -> base
          | Partition -> Printf.sprintf "%s,for=%d" base d.arg
          | Delay | Slow -> Printf.sprintf "%s,ms=%d" base d.arg)
        t.directives
    in
    let parts = if t.seed <> 0 then parts @ [ Printf.sprintf "seed=%d" t.seed ] else parts in
    String.concat ";" parts

let of_string s =
  let ( let* ) = Result.bind in
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let int_field tok v =
    match int_of_string_opt v with
    | Some i when i >= 0 -> Ok i
    | Some _ -> fail "%s: must be non-negative" tok
    | None -> fail "%s: not an integer" tok
  in
  let directive t tok =
    match String.index_opt tok ':' with
    | None -> (
      match String.index_opt tok '=' with
      | Some i when String.sub tok 0 i = "seed" ->
        let* seed = int_field tok (String.sub tok (i + 1) (String.length tok - i - 1)) in
        Ok { t with seed }
      | _ -> fail "chaos %S: expected ACTION:worker=N,after=M or seed=N" tok)
    | Some colon -> (
      let name = String.sub tok 0 colon in
      let args = String.sub tok (colon + 1) (String.length tok - colon - 1) in
      let* action =
        match name with
        | "kill" -> Ok Kill
        | "hang" -> Ok Hang
        | "garbage" -> Ok Garbage
        | "partition" -> Ok Partition
        | "delay" -> Ok Delay
        | "slow" -> Ok Slow
        | "trickle" -> Ok Trickle
        | _ ->
          fail "chaos %S: unknown action %S (kill|hang|garbage|partition|delay|slow|trickle)"
            tok name
      in
      let* worker, after, arg =
        List.fold_left
          (fun acc kv ->
            let* worker, after, arg = acc in
            match String.index_opt kv '=' with
            | None -> fail "chaos %S: expected KEY=VALUE, got %S" tok kv
            | Some i -> (
              let key = String.sub kv 0 i in
              let v = String.sub kv (i + 1) (String.length kv - i - 1) in
              match key with
              | "worker" ->
                let* w = int_field tok v in
                Ok (Some w, after, arg)
              | "after" ->
                let* a = int_field tok v in
                Ok (worker, Some a, arg)
              | "for" when action = Partition ->
                let* ms = int_field tok v in
                Ok (worker, after, Some ms)
              | "ms" when action = Delay || action = Slow ->
                let* ms = int_field tok v in
                Ok (worker, after, Some ms)
              | _ -> fail "chaos %S: unknown key %S" tok key))
          (Ok (None, None, None))
          (List.filter (( <> ) "") (List.map String.trim (String.split_on_char ',' args)))
      in
      match (worker, after) with
      | Some worker, Some after ->
        let arg =
          match (action, arg) with
          | Partition, None -> default_partition_ms
          | Delay, None -> default_delay_ms
          | Slow, None -> default_slow_ms
          | _, None -> 0
          | _, Some ms -> ms
        in
        Ok { t with directives = t.directives @ [ { action; worker; after; arg } ] }
      | None, _ -> fail "chaos %S: missing worker=N" tok
      | _, None -> fail "chaos %S: missing after=N" tok)
  in
  List.fold_left
    (fun acc tok ->
      let* t = acc in
      match String.trim tok with "" | "none" -> Ok t | tok -> directive t tok)
    (Ok none)
    (String.split_on_char ';' s)

let of_string_exn s =
  match of_string s with
  | Ok t -> t
  | Error m -> invalid_arg (Printf.sprintf "Chaos.of_string: %s" m)

(* 64 seeded junk bytes for the garbage action.  The first byte is
   forced away from 0x4F (the frame magic's first byte) so the
   receiver's very next decode attempt is a Bad_magic, never an
   ambiguous "wait for more bytes" — detection is deterministic. *)
let garbage_bytes t ~worker =
  let state = ref (Sim.Sweep.derive_seed t.seed [ "chaos-garbage"; string_of_int worker ]) in
  let next_byte () =
    state := ((!state * 25214903917) + 11) land max_int;
    (!state lsr 24) land 0xff
  in
  String.init 64 (fun i ->
      let b = next_byte () in
      Char.chr (if i = 0 && b = 0x4f then 0x50 else b))

(* The hook is stateful: network directives fire once and are consumed
   (a partition that re-fired on every task after its threshold would
   never let the worker rejoin), while process directives stay armed —
   they terminate the worker, so "at most once" is enforced by death
   itself, and an unconsumed kill must survive a remote worker's
   rejoin with its persistent completed counter.  Scanning is in spec
   order, so a due delay/trickle still arms the shim even when a due
   kill on the same consult ends the worker. *)
let hook ?net t ~worker =
  let mine = ref (List.filter (fun d -> d.worker = worker) t.directives) in
  fun ~completed ->
    let rec scan acc = function
      | [] ->
        mine := List.rev acc;
        `Continue
      | d :: rest when completed < d.after -> scan (d :: acc) rest
      | d :: rest -> (
        match d.action with
        | Kill ->
          mine := List.rev_append acc (d :: rest);
          `Kill
        | Hang ->
          mine := List.rev_append acc (d :: rest);
          `Hang
        | Garbage ->
          mine := List.rev_append acc (d :: rest);
          `Garbage (garbage_bytes t ~worker)
        | Partition ->
          mine := List.rev_append acc rest;
          `Partition (float_of_int d.arg /. 1000.)
        | Delay ->
          (match net with
          | Some (s : Sim.Transport.Shim.state) -> s.delay_s <- float_of_int d.arg /. 1000.
          | None -> ());
          scan acc rest
        | Slow ->
          (* Sticky in the shim; the directive itself fires once. *)
          (match net with
          | Some (s : Sim.Transport.Shim.state) -> s.slow_s <- float_of_int d.arg /. 1000.
          | None -> ());
          scan acc rest
        | Trickle ->
          (match net with
          | Some (s : Sim.Transport.Shim.state) -> s.trickle <- true
          | None -> ());
          scan acc rest)
    in
    scan [] !mine
