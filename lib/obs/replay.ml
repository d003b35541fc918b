type outcome = {
  summary : Counting.summary;
  informed : bool array;
  all_informed : bool;
  in_flight : int;
  decisions : (int * string) list;
}

type t = {
  n : int;
  counts : Counting.t;
  woke : bool array;
  mutable decided : (int * string) list;  (* newest first *)
}

let create ~n = { n; counts = Counting.create (); woke = Array.make n false; decided = [] }

let check t v =
  if v < 0 || v >= t.n then
    invalid_arg (Printf.sprintf "Obs.Replay.replay: node %d outside 0..%d" v (t.n - 1))

let observe t ev =
  Counting.observe t.counts ev;
  match ev.Event.kind with
  | Event.Wake v ->
    check t v;
    t.woke.(v) <- true
  | Event.Decide (v, tag) ->
    check t v;
    t.decided <- (v, tag) :: t.decided
  | Event.Send l | Event.Deliver l ->
    check t l.Event.src;
    check t l.Event.dst
  | Event.Advice_read (v, _) -> check t v
  | Event.Fault (Event.Crashed v | Event.Dead v | Event.Advice_tampered (v, _)) -> check t v
  | Event.Fault
      (Event.Msg_dropped | Event.Msg_duplicated | Event.Msg_delayed _ | Event.Msg_reordered _) ->
    ()
  | Event.Recover (Event.Advice_corrected (v, _)) -> check t v
  | Event.Recover (Event.Msg_retransmitted _) -> ()

let finish t =
  let summary = Counting.summary t.counts in
  {
    summary;
    informed = t.woke;
    all_informed = Array.for_all (fun b -> b) t.woke;
    (* Duplicated copies deliver without their own Send; dropped sends
       never deliver; retransmitted copies re-enter flight without a new
       Send.  All three are recorded as fault/recover events, so the
       balance still reaches zero on a drained faulty run. *)
    in_flight =
      summary.Counting.sent + summary.Counting.duplicated + summary.Counting.retransmits
      - summary.Counting.dropped - summary.Counting.delivered;
    decisions = List.rev t.decided;
  }

let replay ~n events =
  let t = create ~n in
  List.iter (observe t) events;
  finish t
