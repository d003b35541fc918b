open Bitstring

let check_int = Alcotest.(check int)
let check_ints = Alcotest.(check (list int))
let check_string = Alcotest.(check string)

(* {1 Theorem 2.1 port-list code} *)

let test_port_list_empty () =
  let b = Bitbuf.create () in
  Codes.write_port_list b ~width:5 [];
  check_int "leaf advice is empty" 0 (Bitbuf.length b);
  check_ints "decodes to []" [] (Codes.read_port_list (Bitbuf.reader b))

let test_port_list_known_encoding () =
  (* width 3 = binary 11 → doubled 1111, terminator 10; ports 5, 1 in 3
     bits each. *)
  let b = Bitbuf.create () in
  Codes.write_port_list b ~width:3 [ 5; 1 ];
  check_string "bit-exact" "111110101001" (Bitbuf.to_string b)

let test_port_list_roundtrip () =
  List.iter
    (fun (width, ports) ->
      let b = Bitbuf.create () in
      Codes.write_port_list b ~width ports;
      check_ints
        (Printf.sprintf "w=%d" width)
        ports
        (Codes.read_port_list (Bitbuf.reader b)))
    [ (1, [ 0; 1; 1; 0 ]); (3, [ 7 ]); (10, [ 0; 1023; 512 ]); (4, [ 15; 0; 8; 3; 3 ]) ]

let test_port_list_length_formula () =
  List.iter
    (fun (width, count) ->
      let ports = List.init count (fun i -> i mod (1 lsl width)) in
      let b = Bitbuf.create () in
      Codes.write_port_list b ~width ports;
      check_int
        (Printf.sprintf "w=%d c=%d" width count)
        (Codes.port_list_length ~width ~count)
        (Bitbuf.length b))
    [ (1, 0); (1, 3); (3, 1); (7, 4); (16, 2) ]

let test_port_list_bad_width () =
  let b = Bitbuf.create () in
  Alcotest.check_raises "width 0" (Invalid_argument "Codes.write_port_list: width < 1")
    (fun () -> Codes.write_port_list b ~width:0 [ 1 ])

let test_port_list_malformed_header () =
  (* "01" as the very first pair is an invalid header pair. *)
  Alcotest.check_raises "malformed"
    (Invalid_argument "Codes.read_port_list: malformed width header") (fun () ->
      ignore (Codes.read_port_list (Bitbuf.reader (Bitbuf.of_string "0110"))))

let test_port_list_bad_payload () =
  (* Valid header for width 2 ("1111" doubled "11"=3? no: width 3 is "11".
     Use width 2: binary "10" → doubled "1100", terminator "10"; then a
     3-bit payload is not a multiple of 2. *)
  Alcotest.check_raises "payload"
    (Invalid_argument "Codes.read_port_list: payload not a multiple of width") (fun () ->
      ignore (Codes.read_port_list (Bitbuf.reader (Bitbuf.of_string "110010101"))))

(* {1 Marked-bit code} *)

let test_marked_known_encodings () =
  let enc w =
    let b = Bitbuf.create () in
    Codes.write_marked b w;
    Bitbuf.to_string b
  in
  check_string "0" "01" (enc 0);
  check_string "1" "11" (enc 1);
  check_string "5" "100011" (enc 5)

let test_marked_roundtrip () =
  List.iter
    (fun w ->
      let b = Bitbuf.create () in
      Codes.write_marked b w;
      check_int (string_of_int w) w (Codes.read_marked (Bitbuf.reader b)))
    [ 0; 1; 2; 3; 4; 17; 255; 256; 99999 ]

let test_marked_list_roundtrip () =
  let ws = [ 0; 5; 0; 1; 1023; 2 ] in
  let b = Bitbuf.create () in
  Codes.write_marked_list b ws;
  check_ints "list" ws (Codes.read_marked_list (Bitbuf.reader b))

let test_marked_length () =
  let ws = [ 0; 5; 1023 ] in
  let b = Bitbuf.create () in
  Codes.write_marked_list b ws;
  check_int "2 * sum #2" (Codes.marked_length ws) (Bitbuf.length b);
  check_int "value" (2 * (1 + 3 + 10)) (Codes.marked_length ws)

(* {1 Elias gamma} *)

let test_gamma_known () =
  let enc n =
    let b = Bitbuf.create () in
    Codes.write_gamma b n;
    Bitbuf.to_string b
  in
  (* gamma encodes n+1: 1→"1", 2→"010", 3→"011", 4→"00100". *)
  check_string "0" "1" (enc 0);
  check_string "1" "010" (enc 1);
  check_string "2" "011" (enc 2);
  check_string "3" "00100" (enc 3)

let test_gamma_length () =
  List.iter
    (fun n ->
      let b = Bitbuf.create () in
      Codes.write_gamma b n;
      check_int (string_of_int n) (Codes.gamma_length n) (Bitbuf.length b))
    [ 0; 1; 2; 3; 7; 8; 100; 1023 ]

let test_gamma_roundtrip () =
  List.iter
    (fun n ->
      let b = Bitbuf.create () in
      Codes.write_gamma b n;
      check_int (string_of_int n) n (Codes.read_gamma (Bitbuf.reader b)))
    [ 0; 1; 2; 3; 4; 100; 1 lsl 20 ]

(* {1 List roundtrips} *)

(* Each code writes a list of non-negative integers as one string and
   reads it back by consuming the reader to its end. *)
let read_to_end read r =
  let rec loop acc = if Bitbuf.at_end r then List.rev acc else loop (read r :: acc) in
  loop []

let qcheck_list_roundtrip name ~write_list ~read_list max_value =
  QCheck.Test.make
    ~name:(Printf.sprintf "codec %s roundtrip" name)
    ~count:200
    QCheck.(small_list (int_bound max_value))
    (fun values ->
      let b = Bitbuf.create () in
      write_list b values;
      read_list (Bitbuf.reader b) = values)

let qcheck_each_roundtrip name write read max_value =
  qcheck_list_roundtrip name
    ~write_list:(fun b vs -> List.iter (write b) vs)
    ~read_list:(read_to_end read) max_value

let qcheck_port_list =
  QCheck.Test.make ~name:"port list roundtrip (random widths)" ~count:200
    QCheck.(pair (int_range 1 16) (small_list (int_bound 1000)))
    (fun (width, raw) ->
      let ports = List.map (fun p -> p land ((1 lsl width) - 1)) raw in
      let b = Bitbuf.create () in
      Codes.write_port_list b ~width ports;
      Codes.read_port_list (Bitbuf.reader b) = ports)

let qcheck_marked =
  QCheck.Test.make ~name:"marked list roundtrip" ~count:200
    QCheck.(small_list (int_bound 1_000_000))
    (fun ws ->
      let b = Bitbuf.create () in
      Codes.write_marked_list b ws;
      Codes.read_marked_list (Bitbuf.reader b) = ws
      && Bitbuf.length b = Codes.marked_length ws)

let suite =
  [
    Alcotest.test_case "port list: empty" `Quick test_port_list_empty;
    Alcotest.test_case "port list: known encoding" `Quick test_port_list_known_encoding;
    Alcotest.test_case "port list: roundtrips" `Quick test_port_list_roundtrip;
    Alcotest.test_case "port list: length formula" `Quick test_port_list_length_formula;
    Alcotest.test_case "port list: bad width" `Quick test_port_list_bad_width;
    Alcotest.test_case "port list: malformed header" `Quick test_port_list_malformed_header;
    Alcotest.test_case "port list: bad payload" `Quick test_port_list_bad_payload;
    Alcotest.test_case "marked: known encodings" `Quick test_marked_known_encodings;
    Alcotest.test_case "marked: roundtrip" `Quick test_marked_roundtrip;
    Alcotest.test_case "marked: list roundtrip" `Quick test_marked_list_roundtrip;
    Alcotest.test_case "marked: 2-sum length" `Quick test_marked_length;
    Alcotest.test_case "gamma: known codewords" `Quick test_gamma_known;
    Alcotest.test_case "gamma: length formula" `Quick test_gamma_length;
    Alcotest.test_case "gamma: roundtrip" `Quick test_gamma_roundtrip;
    (* Width 10 = max 1 (ceil_log2 (1000 + 1)): every value up to 1000 fits. *)
    QCheck_alcotest.to_alcotest
      (qcheck_list_roundtrip "paper-doubled(w=10)"
         ~write_list:(fun b vs -> Codes.write_port_list b ~width:10 vs)
         ~read_list:Codes.read_port_list 1000);
    QCheck_alcotest.to_alcotest
      (qcheck_each_roundtrip "elias-gamma" Codes.write_gamma Codes.read_gamma 100000);
    QCheck_alcotest.to_alcotest qcheck_port_list;
    QCheck_alcotest.to_alcotest qcheck_marked;
  ]

(* Decoder robustness: random bit strings must decode or raise cleanly —
   never crash, hang, or return out-of-domain values. *)
let qcheck_decoder_fuzz =
  QCheck.Test.make ~name:"decoders never crash on garbage" ~count:300
    QCheck.(small_list bool)
    (fun bits ->
      let buf = Bitbuf.of_bits bits in
      let try_decode f =
        match f (Bitbuf.reader buf) with
        | _ -> true
        | exception (Invalid_argument _ | Bitbuf.End_of_bits) -> true
      in
      try_decode Codes.read_port_list
      && try_decode Codes.read_marked_list
      && try_decode (fun r ->
             let rec loop acc =
               if Bitbuf.at_end r then acc else loop (Codes.read_gamma r :: acc)
             in
             loop []))

let qcheck_gamma_values_nonnegative =
  QCheck.Test.make ~name:"gamma decodes stay non-negative" ~count:300
    QCheck.(small_list bool)
    (fun bits ->
      let r = Bitbuf.reader (Bitbuf.of_bits bits) in
      match Codes.read_gamma r with
      | v -> v >= 0
      | exception (Invalid_argument _ | Bitbuf.End_of_bits) -> true)

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest qcheck_decoder_fuzz;
      QCheck_alcotest.to_alcotest qcheck_gamma_values_nonnegative;
    ]

(* {1 Field boundaries}

   A non-negative OCaml int holds 62 bits.  Every decoder must read a
   field of up to 62 bits exactly and turn anything wider into an error,
   never into a wrapped value. *)

let bits_of s = Bitbuf.of_string s
let zeros k = String.make k '0'
let ones k = String.make k '1'

let check_error name = function
  | Ok l ->
    Alcotest.failf "%s: decoded to [%s]" name (String.concat "; " (List.map string_of_int l))
  | Error _ -> ()

let test_read_int_widths () =
  check_int "62 ones" max_int (Bitbuf.read_int (Bitbuf.reader (bits_of (ones 62))) ~width:62);
  Alcotest.check_raises "width 63" (Invalid_argument "Bitbuf.read_int: width above 62")
    (fun () -> ignore (Bitbuf.read_int (Bitbuf.reader (bits_of (ones 63))) ~width:63))

let test_gamma_wraps_rejected () =
  check_error "70 zeros, a one, 70 ones"
    (Codes.read_gamma_list_result (Bitbuf.reader (bits_of (zeros 70 ^ "1" ^ ones 70))));
  check_error "200 zeros, a one, 200 zeros"
    (Codes.read_gamma_list_result (Bitbuf.reader (bits_of (zeros 200 ^ "1" ^ zeros 200))));
  (* The longest legal prefix, 61 zeros, still decodes. *)
  check_ints "largest gamma codeword" [ max_int - 1 ]
    (Result.get_ok
       (Codes.read_gamma_list_result (Bitbuf.reader (bits_of (zeros 61 ^ "1" ^ ones 61)))));
  check_error "62-zero prefix"
    (Codes.read_gamma_list_result (Bitbuf.reader (bits_of (zeros 62 ^ "1" ^ zeros 62))))

(* Doubled-bit header for [width], then the terminator. *)
let port_list_header width =
  String.concat ""
    (List.map (fun b -> if b then "11" else "00") (Binary.to_bools width))
  ^ "10"

let test_port_list_wide_header_rejected () =
  check_error "width 70"
    (Codes.read_port_list_result (Bitbuf.reader (bits_of (port_list_header 70 ^ ones 140))));
  check_error "width 70, no ports"
    (Codes.read_port_list_result (Bitbuf.reader (bits_of (port_list_header 70))));
  check_ints "width 62" [ max_int; 0 ]
    (Result.get_ok
       (Codes.read_port_list_result
          (Bitbuf.reader (bits_of (port_list_header 62 ^ ones 62 ^ zeros 62)))))

let test_marked_boundary () =
  (* Each payload bit is followed by its flag; only the last is set. *)
  let marked k = String.concat "" (List.init k (fun i -> if i = k - 1 then "11" else "10")) in
  check_ints "62 payload ones" [ max_int ]
    (Result.get_ok (Codes.read_marked_list_result (Bitbuf.reader (bits_of (marked 62)))));
  check_error "63 payload ones"
    (Codes.read_marked_list_result (Bitbuf.reader (bits_of (marked 63))))

(* {1 Canonical decoding of arbitrary bit strings}

   Every value a canonical decoder accepts must re-encode to exactly the
   bits it consumed.  The strings are runs of equal bits, with runs up to
   250 long, so prefixes wider than an int come up often.  The marked
   code accepts leading zero payload bits, so its values re-encode at the
   consumed payload width. *)

let run_bits =
  let open QCheck.Gen in
  let run = pair bool (frequency [ (4, int_range 1 4); (1, int_range 1 250) ]) in
  map
    (fun runs -> List.concat_map (fun (b, k) -> List.init k (fun _ -> b)) runs)
    (list_size (int_range 1 8) run)

let arb_run_bits =
  QCheck.make
    ~print:(fun bits -> String.concat "" (List.map (fun b -> if b then "1" else "0") bits))
    run_bits

let slice buf ~pos ~len = Bitbuf.of_bits (List.init len (fun i -> Bitbuf.get buf (pos + i)))

(* Decode values one by one until the reader ends or the decoder raises;
   each accepted value must re-encode to the bits it consumed. *)
let each_reencodes buf read reencode =
  let r = Bitbuf.reader buf in
  let rec loop () =
    if Bitbuf.at_end r then true
    else
      let pos = Bitbuf.pos r in
      match read r with
      | exception (Invalid_argument _ | Bitbuf.End_of_bits) -> true
      | v ->
        let consumed = slice buf ~pos ~len:(Bitbuf.pos r - pos) in
        (match reencode v ~consumed with
        | b -> Bitbuf.equal b consumed
        | exception Invalid_argument _ -> false)
        && loop ()
  in
  loop ()

let encode write v ~consumed:_ =
  let b = Bitbuf.create () in
  write b v;
  b

(* [v] in exactly as many payload bits as were consumed. *)
let marked_at_width v ~consumed =
  let w = Bitbuf.length consumed / 2 in
  if v < 0 then invalid_arg "negative";
  let b = Bitbuf.create () in
  for i = w - 1 downto 0 do
    Bitbuf.add_bit b (i < 62 && (v lsr i) land 1 = 1);
    Bitbuf.add_bit b (i = 0)
  done;
  b

let qcheck_canonical_decoders =
  QCheck.Test.make ~name:"canonical decoders re-encode what they consume" ~count:500 arb_run_bits
    (fun bits ->
      let buf = Bitbuf.of_bits bits in
      each_reencodes buf Codes.read_gamma (encode Codes.write_gamma)
      && each_reencodes buf Codes.read_marked marked_at_width
      &&
      match Codes.read_gamma_list_result (Bitbuf.reader buf) with
      | Error _ -> true
      | Ok l -> (
        match encode (fun b -> List.iter (Codes.write_gamma b)) l ~consumed:buf with
        | b -> Bitbuf.equal b buf
        | exception Invalid_argument _ -> false))

let suite =
  suite
  @ [
      Alcotest.test_case "read_int: 62-bit boundary" `Quick test_read_int_widths;
      Alcotest.test_case "gamma: wide prefixes rejected" `Quick test_gamma_wraps_rejected;
      Alcotest.test_case "port list: wide header rejected" `Quick
        test_port_list_wide_header_rejected;
      Alcotest.test_case "marked: 62-bit boundary" `Quick test_marked_boundary;
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 21 |]) qcheck_canonical_decoders;
    ]
