(* Port-list code of Theorem 2.1: doubled-bit width header, then fixed-width
   ports.  Header: for each bit b of the binary representation of the width,
   emit bb; terminate with 10. *)

let write_port_list buf ~width ports =
  if width < 1 then invalid_arg "Codes.write_port_list: width < 1";
  match ports with
  | [] -> ()
  | _ ->
    List.iter
      (fun b ->
        Bitbuf.add_bit buf b;
        Bitbuf.add_bit buf b)
      (Binary.to_bools width);
    Bitbuf.add_bit buf true;
    Bitbuf.add_bit buf false;
    List.iter (fun p -> Bitbuf.add_int buf ~width p) ports

(* The width header, for the list and the fold.  The width accumulates
   in an int as the doubled bits stream in, no intermediate bit list. *)
let read_width r =
  let width = ref 0 in
  let stop = ref false in
  while not !stop do
    let b1 = Bitbuf.read_bit r in
    let b2 = Bitbuf.read_bit r in
    (match b1, b2 with
    | true, false -> stop := true
    | true, true -> width := (!width lsl 1) lor 1
    | false, false -> width := !width lsl 1
    | false, true -> invalid_arg "Codes.read_port_list: malformed width header");
    (* No port is wider than an int: stop a long header before the
       width itself wraps. *)
    if !width > 62 then invalid_arg "Codes.read_port_list: width above 62"
  done;
  let width = !width in
  if width < 1 then invalid_arg "Codes.read_port_list: zero width";
  if Bitbuf.remaining r mod width <> 0 then
    invalid_arg "Codes.read_port_list: payload not a multiple of width";
  width

(* On the hot path (every wake maps its port list into its sends): an
   explicitly sequenced recursion reads in stream order by construction,
   and [tail_mod_cons] keeps it in constant stack on a long list. *)
let[@tail_mod_cons] rec map_ports r ~width f k =
  if k = 0 then []
  else
    let x = f (Bitbuf.read_int r ~width) in
    x :: map_ports r ~width f (k - 1)

let map_port_list r f =
  if Bitbuf.at_end r then []
  else
    let width = read_width r in
    map_ports r ~width f (Bitbuf.remaining r / width)

let read_port_list r = map_port_list r Fun.id

(* Top level, so that a fold allocates no closure of its own. *)
let rec fold_ports r ~width f k acc =
  if k = 0 then acc else fold_ports r ~width f (k - 1) (f acc (Bitbuf.read_int r ~width))

let fold_port_list r f acc =
  if Bitbuf.at_end r then acc
  else
    let width = read_width r in
    fold_ports r ~width f (Bitbuf.remaining r / width) acc

let port_list_length ~width ~count =
  if count = 0 then 0 else (count * width) + (2 * Binary.bits width) + 2

(* Marked-bit code of Claim 3.1: each payload bit is followed by a flag that
   is set exactly on the last bit of the value.  2·#₂(w) bits per value. *)

let write_marked buf w =
  let bs = Binary.to_bools w in
  let k = List.length bs in
  List.iteri
    (fun i b ->
      Bitbuf.add_bit buf b;
      Bitbuf.add_bit buf (i = k - 1))
    bs

let read_marked r =
  let rec loop acc =
    let b = Bitbuf.read_bit r in
    let last = Bitbuf.read_bit r in
    if acc > max_int lsr 1 then invalid_arg "Codes.read_marked: value wider than an int";
    let acc = (acc lsl 1) lor (if b then 1 else 0) in
    if last then acc else loop acc
  in
  loop 0

let write_marked_list buf ws = List.iter (write_marked buf) ws

let rec fold_to_end read r f acc =
  if Bitbuf.at_end r then acc else fold_to_end read r f (f acc (read r))

let[@tail_mod_cons] rec map_to_end read r f =
  if Bitbuf.at_end r then []
  else
    let x = f (read r) in
    x :: map_to_end read r f

let read_marked_list r = map_to_end read_marked r Fun.id

let marked_length ws = 2 * List.fold_left (fun acc w -> acc + Binary.bits w) 0 ws

(* Elias gamma. *)

let write_gamma buf n =
  if n < 0 then invalid_arg "Codes.write_gamma: negative";
  let v = n + 1 in
  let k = Binary.floor_log2 v in
  for _ = 1 to k do
    Bitbuf.add_bit buf false
  done;
  Bitbuf.add_int buf ~width:(k + 1) v

(* A gamma codeword carries [n + 1 <= max_int], whose highest set bit is
   at most bit 61. *)
let max_length_exponent = 61

let read_gamma r =
  let rec zeros k = if Bitbuf.read_bit r then k else zeros (k + 1) in
  let k = zeros 0 in
  if k > max_length_exponent then invalid_arg "Codes.read_gamma: prefix too long for an int";
  let rest = if k = 0 then 0 else Bitbuf.read_int r ~width:k in
  ((1 lsl k) lor rest) - 1

let gamma_length n = (2 * Binary.floor_log2 (n + 1)) + 1

(* Result-typed decoding, for adversarial input. *)

let guard name f x =
  match f x with
  | result -> result
  | exception Invalid_argument msg -> Error msg
  | exception Bitbuf.End_of_bits -> Error (Printf.sprintf "Codes.%s: out of bits" name)

let protect name read r = guard name (fun r -> Ok (read r)) r
let read_port_list_result r = protect "read_port_list" read_port_list r
let read_marked_list_result r = protect "read_marked_list" read_marked_list r

let read_gamma_list_result r = protect "read_gamma_list" (fun r -> map_to_end read_gamma r Fun.id) r
