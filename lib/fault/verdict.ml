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

type evidence = {
  stats : Obs.Counting.summary;
  informed : bool array;
  failed : bool array;
  fallbacks : int;
  silent : bool;
}

let judge ?(check_silence = false) ?(quiescent = true) ?unreachable ~budgets e =
  let n = Array.length e.informed in
  if Array.length e.failed <> n then invalid_arg "Fault.Verdict.judge: failed array length <> n";
  (* Nodes the caller proved physically unreachable (every path from the
     source crosses a failed node) join the excluded set: no amount of
     retransmission can inform them, so the scheme owes them nothing —
     but unlike failures they are reported under their own label. *)
  let stranded =
    match unreachable with
    | None -> fun _ -> false
    | Some reach ->
      if Array.length reach <> n then
        invalid_arg "Fault.Verdict.judge: unreachable array length <> n";
      fun v -> reach.(v)
  in
  let sent = e.stats.Obs.Counting.sent in
  let retransmits = e.stats.Obs.Counting.retransmits in
  let in_flight = Obs.Counting.in_flight e.stats in
  let failures = ref 0 in
  let unreached = ref 0 in
  let survivors = ref 0 in
  let informed = ref 0 in
  for v = 0 to n - 1 do
    if e.failed.(v) then incr failures
    else if stranded v then incr unreached
    else begin
      incr survivors;
      if e.informed.(v) then incr informed
    end
  done;
  let excluded_count = n - !survivors in
  if check_silence && not e.silent then
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
  else if in_flight > 0 then Violated (Printf.sprintf "runaway: %d messages still in flight" in_flight)
  else if !informed < !survivors then Stalled { informed = !informed; survivors = !survivors; n }
  else if e.fallbacks = 0 && excluded_count = 0 && retransmits = 0 && sent <= budgets.clean then
    Completed
  else begin
    let parts = ref [] in
    if sent > budgets.clean then
      parts := Printf.sprintf "over-clean-budget(%d>%d)" sent budgets.clean :: !parts;
    if !failures > 0 then parts := Printf.sprintf "node-failures(%d)" !failures :: !parts;
    if !unreached > 0 then parts := Printf.sprintf "unreachable(%d)" !unreached :: !parts;
    if e.fallbacks > 0 then parts := Printf.sprintf "advice-fallback(%d)" e.fallbacks :: !parts;
    if retransmits > 0 then parts := Printf.sprintf "retransmissions(%d)" retransmits :: !parts;
    Degraded (String.concat "," !parts)
  end

(* [Crashed] and [Dead] are never packed, so the failed set is read off
   the boxed events alone; the silence scan reads the packed [Send]
   records in place. *)
let recorded ?(check_silence = false) ~stats ~informed ~fallbacks recorder =
  let failed = Array.make (Array.length informed) false in
  Obs.Recorder.iter_boxed recorder (fun ev ->
      match ev.Obs.Event.kind with
      | Obs.Event.Fault (Obs.Event.Crashed v | Obs.Event.Dead v) -> failed.(v) <- true
      | _ -> ());
  let silent = not (check_silence && Obs.Recorder.uninformed_send recorder) in
  { stats; informed; failed; fallbacks; silent }

let classify ?check_silence ?quiescent ?unreachable ~n ~budgets events =
  let counts = Obs.Counting.create () in
  let informed = Array.make n false and failed = Array.make n false in
  let fallbacks = ref 0 and silent = ref true in
  let check v =
    if v < 0 || v >= n then
      invalid_arg (Printf.sprintf "Fault.Verdict.classify: node %d outside 0..%d" v (n - 1))
  in
  List.iter
    (fun (ev : Obs.Event.t) ->
      Obs.Counting.observe counts ev;
      match ev.kind with
      | Obs.Event.Wake v ->
        check v;
        informed.(v) <- true
      | Obs.Event.Fault (Obs.Event.Crashed v | Obs.Event.Dead v) ->
        check v;
        failed.(v) <- true
      | Obs.Event.Decide (v, tag) ->
        check v;
        if tag = fallback_tag then incr fallbacks
      | Obs.Event.Send l ->
        check l.src;
        check l.dst;
        if not l.informed then silent := false
      | Obs.Event.Deliver l ->
        check l.src;
        check l.dst
      | Obs.Event.Advice_read (v, _)
      | Obs.Event.Fault (Obs.Event.Advice_tampered (v, _))
      | Obs.Event.Recover (Obs.Event.Advice_corrected (v, _)) ->
        check v
      | Obs.Event.Fault
          ( Obs.Event.Msg_dropped | Obs.Event.Msg_duplicated | Obs.Event.Msg_delayed _
          | Obs.Event.Msg_reordered _ )
      | Obs.Event.Recover (Obs.Event.Msg_retransmitted _) ->
        ())
    events;
  judge ?check_silence ?quiescent ?unreachable ~budgets
    {
      stats = Obs.Counting.summary counts;
      informed;
      failed;
      fallbacks = !fallbacks;
      silent = !silent;
    }

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
