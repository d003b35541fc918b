(* Four ints per record.  The kinds a run emits once per message or per
   node are packed:

     w0  seq, verbatim
     w1  round (30 bits) | depth (30 bits) << 30 | tag (3 bits) << 60
     w2  Send/Deliver: src (30) | dst (30) << 30 | class (2) << 60 | informed << 62
         Wake/Advice_read: the node, verbatim
     w3  Send/Deliver: src_port (21) | dst_port (21) << 21 | bits (21) << 42
         Advice_read: bits, verbatim

   Every other kind, and a packed kind with a field outside its width
   (negative included), is kept boxed in [boxed] and leaves a marker
   slot, so decoding in slot order restores the stream exactly. *)

let tag_send = 0
let tag_deliver = 1
let tag_wake = 2
let tag_advice = 3
let tag_boxed = 4
let mask30 = (1 lsl 30) - 1
let mask21 = (1 lsl 21) - 1

type t = {
  mutable data : int array;
  mutable len : int;  (* records *)
  mutable boxed : Event.t list;  (* newest first *)
}

let create () = { data = Array.make 256 0; len = 0; boxed = [] }

let clear t =
  t.len <- 0;
  t.boxed <- []

let put t w0 w1 w2 w3 =
  let i = 4 * t.len in
  if i + 4 > Array.length t.data then begin
    let d = Array.make (2 * Array.length t.data) 0 in
    Array.blit t.data 0 d 0 i;
    t.data <- d
  end;
  let d = t.data in
  Array.unsafe_set d i w0;
  Array.unsafe_set d (i + 1) w1;
  Array.unsafe_set d (i + 2) w2;
  Array.unsafe_set d (i + 3) w3;
  t.len <- t.len + 1

let box t ev =
  t.boxed <- ev :: t.boxed;
  put t 0 (tag_boxed lsl 60) 0 0

let class_code = function Event.Source -> 0 | Event.Hello -> 1 | Event.Control -> 2

(* The direct appends pack from the fields alone, so an emitter that
   records builds no [Event.t] unless a field falls outside its width. *)
let append_link t tag ~seq ~round ~src ~src_port ~dst ~dst_port ~cls ~bits ~informed ~depth =
  if (round lor depth lor src lor dst) lsr 30 = 0 && (src_port lor dst_port lor bits) lsr 21 = 0
  then
    put t seq
      (round lor (depth lsl 30) lor (tag lsl 60))
      (src lor (dst lsl 30) lor (class_code cls lsl 60) lor Bool.to_int informed lsl 62)
      (src_port lor (dst_port lsl 21) lor (bits lsl 42))
  else begin
    let l = { Event.src; src_port; dst; dst_port; cls; bits; informed; depth } in
    box t { Event.seq; round; kind = (if tag = tag_send then Event.Send l else Event.Deliver l) }
  end

let send t ~seq ~round ~src ~src_port ~dst ~dst_port ~cls ~bits ~informed ~depth =
  append_link t tag_send ~seq ~round ~src ~src_port ~dst ~dst_port ~cls ~bits ~informed ~depth

let deliver t ~seq ~round ~src ~src_port ~dst ~dst_port ~cls ~bits ~informed ~depth =
  append_link t tag_deliver ~seq ~round ~src ~src_port ~dst ~dst_port ~cls ~bits ~informed ~depth

let wake t ~seq ~round v =
  if round lsr 30 = 0 then put t seq (round lor (tag_wake lsl 60)) v 0
  else box t { Event.seq; round; kind = Event.Wake v }

let advice_read t ~seq ~round v ~bits =
  if round lsr 30 = 0 then put t seq (round lor (tag_advice lsl 60)) v bits
  else box t { Event.seq; round; kind = Event.Advice_read (v, bits) }

let push t (ev : Event.t) =
  let seq = ev.seq and round = ev.round in
  match ev.kind with
  | Send l ->
    send t ~seq ~round ~src:l.src ~src_port:l.src_port ~dst:l.dst ~dst_port:l.dst_port ~cls:l.cls
      ~bits:l.bits ~informed:l.informed ~depth:l.depth
  | Deliver l ->
    deliver t ~seq ~round ~src:l.src ~src_port:l.src_port ~dst:l.dst ~dst_port:l.dst_port
      ~cls:l.cls ~bits:l.bits ~informed:l.informed ~depth:l.depth
  | Wake v -> wake t ~seq ~round v
  | Advice_read (v, bits) -> advice_read t ~seq ~round v ~bits
  | Decide _ | Fault _ | Recover _ -> box t ev

let decode_link w1 w2 w3 =
  {
    Event.src = w2 land mask30;
    src_port = w3 land mask21;
    dst = (w2 lsr 30) land mask30;
    dst_port = (w3 lsr 21) land mask21;
    cls = (match (w2 lsr 60) land 3 with 0 -> Event.Source | 1 -> Event.Hello | _ -> Event.Control);
    bits = w3 lsr 42;
    informed = w2 lsr 62 = 1;
    depth = (w1 lsr 30) land mask30;
  }

(* The packed record [r]; its tag is not [tag_boxed]. *)
let unpack d r =
  let i = 4 * r in
  let w1 = d.(i + 1) in
  let tag = w1 lsr 60 in
  let seq = d.(i) and round = w1 land mask30 and w2 = d.(i + 2) and w3 = d.(i + 3) in
  let kind =
    if tag = tag_send then Event.Send (decode_link w1 w2 w3)
    else if tag = tag_deliver then Event.Deliver (decode_link w1 w2 w3)
    else if tag = tag_wake then Event.Wake w2
    else Event.Advice_read (w2, w3)
  in
  { Event.seq; round; kind }

let is_boxed d r = d.((4 * r) + 1) lsr 60 = tag_boxed

let pop boxed =
  match !boxed with
  | ev :: rest ->
    boxed := rest;
    ev
  | [] -> assert false

let iter t f =
  let d = t.data in
  let boxed = ref (List.rev t.boxed) in
  for r = 0 to t.len - 1 do
    f (if is_boxed d r then pop boxed else unpack d r)
  done

let iter_boxed t f = List.iter f t.boxed

(* Bit 62 of a packed [Send]'s w2 is its [informed] flag. *)
let uninformed_send t =
  let d = t.data in
  let found = ref false and r = ref 0 in
  while (not !found) && !r < t.len do
    let i = 4 * !r in
    if d.(i + 1) lsr 60 = tag_send && d.(i + 2) lsr 62 = 0 then found := true;
    incr r
  done;
  !found
  || List.exists
       (fun (ev : Event.t) -> match ev.kind with Send l -> not l.informed | _ -> false)
       t.boxed

(* Newest record first, consing as it goes: the list comes out oldest
   first with no reversal. *)
let to_list t =
  let d = t.data in
  let acc = ref [] in
  let boxed = ref t.boxed in
  for r = t.len - 1 downto 0 do
    acc := (if is_boxed d r then pop boxed else unpack d r) :: !acc
  done;
  !acc
