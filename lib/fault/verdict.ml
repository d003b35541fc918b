type budgets = {
  clean : int;
  degraded : int;
  recovery : int;
}

type t =
  | Completed
  | Degraded of string
  | Stalled of {
      informed : int;
      survivors : int;
      n : int;
    }
  | Violated of string

let fallback_tag = "fallback-flood"

type fold = {
  n : int;
  replay : Obs.Replay.t;
  failed : bool array;  (* crashed or dead *)
  mutable failures : int;
  mutable fallbacks : int;
  mutable silent : bool;
}

let create ~n =
  {
    n;
    replay = Obs.Replay.create ~n;
    failed = Array.make n false;
    failures = 0;
    fallbacks = 0;
    silent = true;
  }

let observe t ev =
  Obs.Replay.observe t.replay ev;
  match ev.Obs.Event.kind with
  | Obs.Event.Fault (Obs.Event.Crashed v | Obs.Event.Dead v) ->
    if not t.failed.(v) then t.failures <- t.failures + 1;
    t.failed.(v) <- true
  | Obs.Event.Decide (_, tag) when tag = fallback_tag -> t.fallbacks <- t.fallbacks + 1
  | Obs.Event.Send l -> if not l.Obs.Event.informed then t.silent <- false
  | Obs.Event.Deliver _ | Obs.Event.Wake _ | Obs.Event.Decide _ | Obs.Event.Advice_read _
  | Obs.Event.Fault _ | Obs.Event.Recover _ ->
    ()

let failed t = t.failed

let finish ?(check_silence = false) ?(quiescent = true) ?unreachable ~budgets t =
  let n = t.n in
  let out = Obs.Replay.finish t.replay in
  (* Nodes the caller proved physically unreachable (every path from the
     source crosses a failed node) join the excluded set: no amount of
     retransmission can inform them, so the scheme owes them nothing —
     but unlike failures they are reported under their own label. *)
  let stranded =
    match unreachable with
    | None -> fun _ -> false
    | Some reach ->
      if Array.length reach <> n then
        invalid_arg "Fault.Verdict.classify: unreachable array length <> n";
      fun v -> reach.(v)
  in
  let sent = out.Obs.Replay.summary.Obs.Counting.sent in
  let retransmits = out.Obs.Replay.summary.Obs.Counting.retransmits in
  let unreached = ref 0 in
  let survivors = ref 0 in
  let informed = ref 0 in
  for v = 0 to n - 1 do
    if t.failed.(v) then ()
    else if stranded v then incr unreached
    else begin
      incr survivors;
      if out.Obs.Replay.informed.(v) then incr informed
    end
  done;
  let excluded_count = n - !survivors in
  if check_silence && not t.silent then
    Violated "wakeup-silence: a non-woken node transmitted"
  else if not quiescent then
    Violated
      (Printf.sprintf "message-cutoff: stopped by max_messages after %d sends, queue not drained"
         sent)
  else if sent > budgets.degraded then
    Violated (Printf.sprintf "message-budget: %d sent, %d allowed even degraded" sent budgets.degraded)
  else if retransmits > budgets.recovery then
    Violated
      (Printf.sprintf "recovery-budget: %d retransmissions, %d allowed" retransmits budgets.recovery)
  else if out.Obs.Replay.in_flight > 0 then
    Violated (Printf.sprintf "runaway: %d messages still in flight" out.Obs.Replay.in_flight)
  else if !informed < !survivors then Stalled { informed = !informed; survivors = !survivors; n }
  else if t.fallbacks = 0 && excluded_count = 0 && retransmits = 0 && sent <= budgets.clean then
    Completed
  else begin
    let parts = ref [] in
    if sent > budgets.clean then
      parts := Printf.sprintf "over-clean-budget(%d>%d)" sent budgets.clean :: !parts;
    if t.failures > 0 then parts := Printf.sprintf "node-failures(%d)" t.failures :: !parts;
    if !unreached > 0 then parts := Printf.sprintf "unreachable(%d)" !unreached :: !parts;
    if t.fallbacks > 0 then parts := Printf.sprintf "advice-fallback(%d)" t.fallbacks :: !parts;
    if retransmits > 0 then parts := Printf.sprintf "retransmissions(%d)" retransmits :: !parts;
    Degraded (String.concat "," !parts)
  end

let classify ?check_silence ?quiescent ?unreachable ~n ~budgets events =
  let t = create ~n in
  List.iter (observe t) events;
  finish ?check_silence ?quiescent ?unreachable ~budgets t

let to_string = function
  | Completed -> "completed"
  | Degraded reason -> Printf.sprintf "degraded: %s" reason
  | Stalled { informed; survivors; n } ->
    Printf.sprintf "stalled: %d/%d survivors informed (n=%d)" informed survivors n
  | Violated invariant -> Printf.sprintf "violated: %s" invariant

let pp fmt v = Format.pp_print_string fmt (to_string v)

let acceptable = function
  | Completed | Degraded _ -> true
  | Stalled _ | Violated _ -> false
