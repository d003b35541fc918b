type outcome = {
  summary : Counting.summary;
  informed : bool array;
  all_informed : bool;
  in_flight : int;
  decisions : (int * string) list;
}

let replay ~n events =
  let counts = Counting.create () in
  let woke = Array.make n false in
  let decided = ref [] in
  let check v =
    if v < 0 || v >= n then
      invalid_arg (Printf.sprintf "Obs.Replay.replay: node %d outside 0..%d" v (n - 1))
  in
  List.iter
    (fun (ev : Event.t) ->
      Counting.observe counts ev;
      match ev.kind with
      | Event.Wake v ->
        check v;
        woke.(v) <- true
      | Event.Decide (v, tag) ->
        check v;
        decided := (v, tag) :: !decided
      | Event.Send l | Event.Deliver l ->
        check l.Event.src;
        check l.Event.dst
      | Event.Advice_read (v, _) -> check v
      | Event.Fault (Event.Crashed v | Event.Dead v | Event.Advice_tampered (v, _)) -> check v
      | Event.Fault
          (Event.Msg_dropped | Event.Msg_duplicated | Event.Msg_delayed _ | Event.Msg_reordered _)
        ->
        ()
      | Event.Recover (Event.Advice_corrected (v, _)) -> check v
      | Event.Recover (Event.Msg_retransmitted _) -> ())
    events;
  let summary = Counting.summary counts in
  {
    summary;
    informed = woke;
    all_informed = Array.for_all Fun.id woke;
    in_flight = Counting.in_flight summary;
    decisions = List.rev !decided;
  }
