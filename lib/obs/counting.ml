type summary = {
  sent : int;
  delivered : int;
  source_sent : int;
  hello_sent : int;
  control_sent : int;
  bits_on_wire : int;
  rounds : int;
  causal_depth : int;
  wakes : int;
  decides : int;
  advice_bits : int;
  faults : int;
  dropped : int;
  duplicated : int;
  retransmits : int;
  corrected_bits : int;
}

type t = {
  mutable c_sent : int;
  mutable c_delivered : int;
  mutable c_source : int;
  mutable c_hello : int;
  mutable c_control : int;
  mutable c_bits : int;
  mutable c_rounds : int;
  mutable c_depth : int;
  mutable c_wakes : int;
  mutable c_decides : int;
  mutable c_advice : int;
  mutable c_faults : int;
  mutable c_dropped : int;
  mutable c_duplicated : int;
  mutable c_retransmits : int;
  mutable c_corrected : int;
}

let create () =
  {
    c_sent = 0;
    c_delivered = 0;
    c_source = 0;
    c_hello = 0;
    c_control = 0;
    c_bits = 0;
    c_rounds = 0;
    c_depth = 0;
    c_wakes = 0;
    c_decides = 0;
    c_advice = 0;
    c_faults = 0;
    c_dropped = 0;
    c_duplicated = 0;
    c_retransmits = 0;
    c_corrected = 0;
  }

(* One arm per event kind.  [observe] dispatches an event to its arm;
   the runner's sink-less hot path calls the arms directly, so it counts
   without ever building an [Event.t] and lands on the same counters. *)

let note_round t round = if round > t.c_rounds then t.c_rounds <- round

let note_send t ~round ~cls ~bits =
  note_round t round;
  t.c_sent <- t.c_sent + 1;
  (match cls with
  | Event.Source -> t.c_source <- t.c_source + 1
  | Event.Hello -> t.c_hello <- t.c_hello + 1
  | Event.Control -> t.c_control <- t.c_control + 1);
  t.c_bits <- t.c_bits + bits

let note_deliver t ~round ~depth =
  note_round t round;
  t.c_delivered <- t.c_delivered + 1;
  if depth > t.c_depth then t.c_depth <- depth

let note_wake t ~round =
  note_round t round;
  t.c_wakes <- t.c_wakes + 1

let note_advice t ~round ~bits =
  note_round t round;
  t.c_advice <- t.c_advice + bits

let note_fault t ~round f =
  note_round t round;
  t.c_faults <- t.c_faults + 1;
  match f with
  | Event.Msg_dropped -> t.c_dropped <- t.c_dropped + 1
  | Event.Msg_duplicated -> t.c_duplicated <- t.c_duplicated + 1
  | Event.Msg_delayed _ | Event.Msg_reordered _ | Event.Crashed _ | Event.Dead _
  | Event.Advice_tampered _ ->
    ()

let note_retransmit t ~round =
  note_round t round;
  t.c_retransmits <- t.c_retransmits + 1

let observe t (ev : Event.t) =
  let round = ev.Event.round in
  match ev.Event.kind with
  | Event.Send l -> note_send t ~round ~cls:l.Event.cls ~bits:l.Event.bits
  | Event.Deliver l -> note_deliver t ~round ~depth:l.Event.depth
  | Event.Wake _ -> note_wake t ~round
  | Event.Decide _ ->
    note_round t round;
    t.c_decides <- t.c_decides + 1
  | Event.Advice_read (_, bits) -> note_advice t ~round ~bits
  | Event.Fault f -> note_fault t ~round f
  | Event.Recover (Event.Msg_retransmitted _) -> note_retransmit t ~round
  | Event.Recover (Event.Advice_corrected (_, bits)) ->
    note_round t round;
    t.c_corrected <- t.c_corrected + bits

(* Merging is exact, not approximate: every counter is a sum except
   [c_rounds] and [c_depth], which are maxima — both commutative and
   associative folds of the per-event contributions, so counters split
   across domains and absorbed in any order equal the sequential fold
   over the same events.  This is what lets the sharded runner keep one
   [t] per domain with no synchronization and still report stats
   bit-identical to the sequential runner. *)
let absorb t other =
  t.c_sent <- t.c_sent + other.c_sent;
  t.c_delivered <- t.c_delivered + other.c_delivered;
  t.c_source <- t.c_source + other.c_source;
  t.c_hello <- t.c_hello + other.c_hello;
  t.c_control <- t.c_control + other.c_control;
  t.c_bits <- t.c_bits + other.c_bits;
  if other.c_rounds > t.c_rounds then t.c_rounds <- other.c_rounds;
  if other.c_depth > t.c_depth then t.c_depth <- other.c_depth;
  t.c_wakes <- t.c_wakes + other.c_wakes;
  t.c_decides <- t.c_decides + other.c_decides;
  t.c_advice <- t.c_advice + other.c_advice;
  t.c_faults <- t.c_faults + other.c_faults;
  t.c_dropped <- t.c_dropped + other.c_dropped;
  t.c_duplicated <- t.c_duplicated + other.c_duplicated;
  t.c_retransmits <- t.c_retransmits + other.c_retransmits;
  t.c_corrected <- t.c_corrected + other.c_corrected

let sink t = Sink.make (observe t)

let summary t =
  {
    sent = t.c_sent;
    delivered = t.c_delivered;
    source_sent = t.c_source;
    hello_sent = t.c_hello;
    control_sent = t.c_control;
    bits_on_wire = t.c_bits;
    rounds = t.c_rounds;
    causal_depth = t.c_depth;
    wakes = t.c_wakes;
    decides = t.c_decides;
    advice_bits = t.c_advice;
    faults = t.c_faults;
    dropped = t.c_dropped;
    duplicated = t.c_duplicated;
    retransmits = t.c_retransmits;
    corrected_bits = t.c_corrected;
  }

let sent t = t.c_sent

(* Duplicated copies deliver without their own Send; dropped sends
   never deliver; retransmitted copies re-enter flight without a new
   Send.  All three are counted, so the balance still reaches zero on a
   drained faulty run. *)
let in_flight s = s.sent + s.duplicated + s.retransmits - s.dropped - s.delivered

let of_events events =
  let t = create () in
  List.iter (observe t) events;
  summary t

let pp fmt s =
  Format.fprintf fmt
    "@[<h>sent=%d (source=%d hello=%d control=%d) delivered=%d bits=%d rounds=%d depth=%d \
     wakes=%d decides=%d advice=%db faults=%d retransmits=%d corrected=%db@]"
    s.sent s.source_sent s.hello_sent s.control_sent s.delivered s.bits_on_wire s.rounds
    s.causal_depth s.wakes s.decides s.advice_bits s.faults s.retransmits s.corrected_bits
