type t = { mutable data : Bytes.t; mutable len : int }

exception End_of_bits

let create ?(capacity = 64) () =
  let capacity = max capacity 8 in
  { data = Bytes.make ((capacity + 7) / 8) '\000'; len = 0 }

let length t = t.len

let is_empty t = t.len = 0

let ensure t extra =
  let needed_bytes = (t.len + extra + 7) / 8 in
  if needed_bytes > Bytes.length t.data then begin
    let capacity = max needed_bytes (2 * Bytes.length t.data) in
    let data = Bytes.make capacity '\000' in
    Bytes.blit t.data 0 data 0 (Bytes.length t.data);
    t.data <- data
  end

let unsafe_get data i =
  Char.code (Bytes.unsafe_get data (i lsr 3)) land (0x80 lsr (i land 7)) <> 0

let unsafe_set data i =
  let byte = i lsr 3 in
  let v = Char.code (Bytes.unsafe_get data byte) lor (0x80 lsr (i land 7)) in
  Bytes.unsafe_set data byte (Char.unsafe_chr v)

let add_bit t b =
  ensure t 1;
  if b then unsafe_set t.data t.len;
  t.len <- t.len + 1

let add_bits t bits = List.iter (add_bit t) bits

let add_int t ~width v =
  if width < 0 then invalid_arg "Bitbuf.add_int: negative width";
  if v < 0 then invalid_arg "Bitbuf.add_int: negative value";
  if width < Sys.int_size && v lsr width <> 0 then
    invalid_arg "Bitbuf.add_int: value does not fit in width";
  ensure t width;
  for i = width - 1 downto 0 do
    add_bit t (v lsr i land 1 = 1)
  done

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Bitbuf.get: index out of range";
  unsafe_get t.data i

let append dst src =
  ensure dst src.len;
  for i = 0 to src.len - 1 do
    add_bit dst (unsafe_get src.data i)
  done

let copy t =
  let data = Bytes.copy t.data in
  { data; len = t.len }

let equal a b =
  a.len = b.len
  &&
  let rec loop i = i >= a.len || (unsafe_get a.data i = unsafe_get b.data i && loop (i + 1)) in
  loop 0

let to_string t = String.init t.len (fun i -> if unsafe_get t.data i then '1' else '0')

let of_string s =
  let t = create ~capacity:(String.length s) () in
  String.iter
    (function
      | '0' -> add_bit t false
      | '1' -> add_bit t true
      | c -> invalid_arg (Printf.sprintf "Bitbuf.of_string: bad character %C" c))
    s;
  t

let of_bits bits =
  let t = create ~capacity:(List.length bits) () in
  add_bits t bits;
  t

let to_bits t =
  let rec loop i acc = if i < 0 then acc else loop (i - 1) (unsafe_get t.data i :: acc) in
  loop (t.len - 1) []

let byte_length t = (t.len + 7) / 8

(* Sound because the buffer's representation invariant says every bit of
   [data] at or beyond [len] is zero: [create]/[ensure] allocate zeroed
   bytes, [add_bit] only ever sets the bit at [len], and nothing clears
   [len] back.  The trailing pad of the last byte is therefore always
   zero, which is exactly what the frame format requires of it. *)
let to_bytes t = Bytes.sub t.data 0 (byte_length t)

let of_bytes b ~pos ~bits =
  if bits < 0 then invalid_arg "Bitbuf.of_bytes: negative bit count";
  let nbytes = (bits + 7) / 8 in
  if pos < 0 || pos + nbytes > Bytes.length b then
    invalid_arg "Bitbuf.of_bytes: range out of bounds";
  let data = Bytes.make (max 1 nbytes) '\000' in
  Bytes.blit b pos data 0 nbytes;
  (* Mask the tail so the zeros-beyond-[len] invariant holds even when
     the source bytes carry junk in their pad bits. *)
  let rem = bits land 7 in
  if rem <> 0 then begin
    let last = nbytes - 1 in
    Bytes.set data last
      (Char.chr (Char.code (Bytes.get data last) land (0xff lsl (8 - rem) land 0xff)))
  end;
  { data; len = bits }

let pp fmt t = Format.pp_print_string fmt (to_string t)

type reader = { buf : t; mutable cursor : int }

let reader buf = { buf; cursor = 0 }

let read_bit r =
  if r.cursor >= r.buf.len then raise End_of_bits;
  let b = unsafe_get r.buf.data r.cursor in
  r.cursor <- r.cursor + 1;
  b

(* Word-wise: pull up to 8 bits per byte access instead of one
   [read_bit] call per bit — [read_int] sits on the advice-decoding hot
   path (every wake decodes a port list), where the bit-by-bit loop was
   measurable at n = 10^6. *)
let read_int r ~width =
  if width < 0 then invalid_arg "Bitbuf.read_int: negative width";
  (* 62 bits are all a non-negative OCaml int holds (Sys.int_size - 1 on
     the 64-bit hosts OCaml 5 runs on): a wider field would set the sign
     bit or shift bits out, so reject it rather than return a wrapped
     value. *)
  if width > 62 then invalid_arg "Bitbuf.read_int: width above 62";
  if r.cursor + width > r.buf.len then raise End_of_bits;
  let data = r.buf.data in
  let c = ref r.cursor in
  let acc = ref 0 in
  let rem = ref width in
  while !rem > 0 do
    let off = !c land 7 in
    let avail = 8 - off in
    let take = if !rem < avail then !rem else avail in
    let v = Char.code (Bytes.unsafe_get data (!c lsr 3)) in
    (* bits [off .. off+take-1] of the byte, MSB-first *)
    acc := (!acc lsl take) lor ((v lsr (avail - take)) land ((1 lsl take) - 1));
    c := !c + take;
    rem := !rem - take
  done;
  r.cursor <- !c;
  !acc

let remaining r = r.buf.len - r.cursor

let pos r = r.cursor

let at_end r = r.cursor = r.buf.len
