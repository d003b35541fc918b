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

let link t tag (ev : Event.t) (l : Event.link) =
  if
    (ev.round lor l.depth lor l.src lor l.dst) lsr 30 = 0
    && (l.src_port lor l.dst_port lor l.bits) lsr 21 = 0
  then
    put t ev.seq
      (ev.round lor (l.depth lsl 30) lor (tag lsl 60))
      (l.src lor (l.dst lsl 30) lor (class_code l.cls lsl 60) lor Bool.to_int l.informed lsl 62)
      (l.src_port lor (l.dst_port lsl 21) lor (l.bits lsl 42))
  else box t ev

let push t (ev : Event.t) =
  match ev.kind with
  | Send l -> link t tag_send ev l
  | Deliver l -> link t tag_deliver ev l
  | Wake v when ev.round lsr 30 = 0 -> put t ev.seq (ev.round lor (tag_wake lsl 60)) v 0
  | Advice_read (v, bits) when ev.round lsr 30 = 0 ->
    put t ev.seq (ev.round lor (tag_advice lsl 60)) v bits
  | Wake _ | Advice_read _ | Decide _ | Fault _ | Recover _ -> box t ev

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

(* Newest record first, consing as it goes: the list comes out oldest
   first with no reversal. *)
let to_list t =
  let d = t.data in
  let acc = ref [] in
  let boxed = ref t.boxed in
  for r = t.len - 1 downto 0 do
    let i = 4 * r in
    let w1 = d.(i + 1) in
    let tag = w1 lsr 60 in
    let ev =
      if tag = tag_boxed then begin
        match !boxed with
        | ev :: rest ->
          boxed := rest;
          ev
        | [] -> assert false
      end
      else begin
        let seq = d.(i) and round = w1 land mask30 and w2 = d.(i + 2) and w3 = d.(i + 3) in
        let kind =
          if tag = tag_send then Event.Send (decode_link w1 w2 w3)
          else if tag = tag_deliver then Event.Deliver (decode_link w1 w2 w3)
          else if tag = tag_wake then Event.Wake w2
          else Event.Advice_read (w2, w3)
        in
        { Event.seq; round; kind }
      end
    in
    acc := ev :: !acc
  done;
  !acc
