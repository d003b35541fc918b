(* The error-protection layer: CRC detection, Hamming single-error
   correction, repetition majority, exact size accounting, and totality
   of [unprotect] and the result decoders on arbitrary bit strings. *)

module Bitbuf = Bitstring.Bitbuf
module Codes = Bitstring.Codes
module Ecc = Bitstring.Ecc

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let buf_of_bits bits = Bitbuf.of_bits bits

let random_buf st len = Bitbuf.of_bits (List.init len (fun _ -> Random.State.bool st))

let flip buf i =
  let bits = Bitbuf.to_bits buf in
  Bitbuf.of_bits (List.mapi (fun j b -> if j = i then not b else b) bits)

(* {1 Names} *)

let test_names () =
  List.iter
    (fun level ->
      let n = Ecc.name level in
      match Ecc.of_name n with
      | Ok back -> check_bool (n ^ " roundtrips") true (back = level)
      | Error e -> Alcotest.failf "%s does not parse back: %s" n e)
    Ecc.all;
  check_bool "rep5 parses" true (Ecc.of_name "rep5" = Ok (Ecc.Repetition 5));
  check_bool "none is an alias for raw" true (Ecc.of_name "none" = Ok Ecc.Raw);
  check_bool "sec is an alias for hamming" true (Ecc.of_name "sec" = Ok Ecc.Hamming);
  List.iter
    (fun s ->
      match Ecc.of_name s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted bogus level %S" s)
    [ "rep1"; "rep0"; "repx"; "turbo"; "" ];
  check_string "hamming name" "hamming" (Ecc.name Ecc.Hamming)

(* {1 Roundtrip and exact size accounting} *)

let test_roundtrip_all_levels () =
  let st = Random.State.make [| 11 |] in
  List.iter
    (fun level ->
      for len = 0 to 48 do
        let payload = random_buf st len in
        let coded = Ecc.protect level payload in
        check_int
          (Printf.sprintf "%s length formula at %d" (Ecc.name level) len)
          (Ecc.protected_length level len) (Bitbuf.length coded);
        match Ecc.unprotect level coded with
        | Ok (back, corrected) ->
          check_bool
            (Printf.sprintf "%s roundtrip at %d" (Ecc.name level) len)
            true (Bitbuf.equal back payload);
          check_int (Printf.sprintf "%s clean decode corrects nothing" (Ecc.name level)) 0 corrected
        | Error e -> Alcotest.failf "%s clean codeword rejected at %d: %s" (Ecc.name level) len e
      done)
    Ecc.all

let test_empty_is_fixed_point () =
  List.iter
    (fun level ->
      let coded = Ecc.protect level (Bitbuf.create ()) in
      check_int (Ecc.name level ^ " empty stays empty") 0 (Bitbuf.length coded);
      check_int (Ecc.name level ^ " zero length formula") 0 (Ecc.protected_length level 0);
      match Ecc.unprotect level (Bitbuf.create ()) with
      | Ok (back, 0) -> check_bool "decodes to empty" true (Bitbuf.is_empty back)
      | Ok (_, _) -> Alcotest.fail "empty decode corrected something"
      | Error e -> Alcotest.failf "%s rejects the empty string: %s" (Ecc.name level) e)
    Ecc.all

let test_overhead_bounds () =
  let st = Random.State.make [| 13 |] in
  List.iter
    (fun level ->
      let bound = Ecc.overhead_bound level in
      for len = 1 to 64 do
        ignore (random_buf st len);
        let ratio = float_of_int (Ecc.protected_length level len) /. float_of_int len in
        if level <> Ecc.Crc then
          check_bool
            (Printf.sprintf "%s overhead at %d within %.1f" (Ecc.name level) len bound)
            true
            (ratio <= bound +. 1e-9)
      done)
    Ecc.all;
  (* the acceptance bound: Hamming-protected advice is at most 3x raw,
     with the 1-bit payload as the extremal case *)
  check_int "hamming worst case: 1 bit -> 3 bits" 3 (Ecc.protected_length Ecc.Hamming 1);
  check_bool "crc bound quoted for 1-bit payloads" true (Ecc.overhead_bound Ecc.Crc = 9.0)

let test_rep_k_validation () =
  (match Ecc.protect (Ecc.Repetition 1) (buf_of_bits [ true ]) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "rep1 must be rejected");
  let coded = Ecc.protect (Ecc.Repetition 4) (buf_of_bits [ true; false ]) in
  check_int "rep4 size" 8 (Bitbuf.length coded)

(* {1 Error behaviour: correct, detect, reject} *)

let test_hamming_corrects_any_single_flip () =
  let st = Random.State.make [| 17 |] in
  for len = 1 to 40 do
    let payload = random_buf st len in
    let coded = Ecc.protect Ecc.Hamming payload in
    for i = 0 to Bitbuf.length coded - 1 do
      match Ecc.unprotect Ecc.Hamming (flip coded i) with
      | Ok (back, corrected) ->
        check_bool
          (Printf.sprintf "len %d flip %d corrected" len i)
          true (Bitbuf.equal back payload);
        check_int "one correction reported" 1 corrected
      | Error e -> Alcotest.failf "len %d flip %d rejected: %s" len i e
    done
  done

let test_crc_detects_single_flips () =
  let st = Random.State.make [| 19 |] in
  for len = 1 to 32 do
    let payload = random_buf st len in
    let coded = Ecc.protect Ecc.Crc payload in
    for i = 0 to Bitbuf.length coded - 1 do
      match Ecc.unprotect Ecc.Crc (flip coded i) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "crc missed a flip at %d (len %d)" i len
    done
  done

let test_rep3_corrects_one_flip_per_bit () =
  let payload = buf_of_bits [ true; false; true; true; false ] in
  let coded = Ecc.protect (Ecc.Repetition 3) payload in
  for i = 0 to Bitbuf.length coded - 1 do
    match Ecc.unprotect (Ecc.Repetition 3) (flip coded i) with
    | Ok (back, corrected) ->
      check_bool (Printf.sprintf "flip %d out-voted" i) true (Bitbuf.equal back payload);
      check_int "one correction" 1 corrected
    | Error e -> Alcotest.failf "rep3 rejected flip %d: %s" i e
  done;
  (* even k detects a tie instead of guessing *)
  let coded2 = Ecc.protect (Ecc.Repetition 2) (buf_of_bits [ true ]) in
  match Ecc.unprotect (Ecc.Repetition 2) (flip coded2 0) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "rep2 tie must be an error"

let test_framing_errors_rejected () =
  (* strings that cannot be codewords: wrong length classes *)
  List.iter
    (fun (level, bad_lens) ->
      List.iter
        (fun len ->
          let junk = Bitbuf.of_bits (List.init len (fun i -> i mod 2 = 0)) in
          match Ecc.unprotect level junk with
          | Error _ -> ()
          | Ok _ ->
            Alcotest.failf "%s accepted an unframeable %d-bit string" (Ecc.name level) len)
        bad_lens)
    [
      (Ecc.Crc, [ 1; 2; 7; 8 ]) (* shorter than the 8 check bits + 1 *);
      (Ecc.Hamming, [ 1; 2 ]) (* no r with 2^r >= m+r+1 fits *);
      (Ecc.Repetition 3, [ 1; 2; 4; 5 ]) (* not a multiple of 3 *);
    ]

(* {1 Totality fuzz: unprotect and the result decoders never raise} *)

let qcheck_unprotect_total =
  QCheck.Test.make ~name:"unprotect total on arbitrary strings" ~count:2000
    QCheck.(pair (int_bound 3) (small_list bool))
    (fun (which, bits) ->
      let level = List.nth Ecc.all which in
      let buf = Bitbuf.of_bits bits in
      match Ecc.unprotect level buf with Ok _ | Error _ -> true)

(* Arbitrary and ECC-mangled strings fed to the advice decoders: the
   schemes' fallback path relies on these never raising. *)
let qcheck_decoders_total =
  QCheck.Test.make ~name:"result decoders total on arbitrary strings" ~count:2000
    QCheck.(small_list bool)
    (fun bits ->
      let try_decode () =
        let buf = Bitbuf.of_bits bits in
        let _ = Codes.read_port_list_result (Bitbuf.reader buf) in
        let _ = Codes.read_marked_list_result (Bitbuf.reader buf) in
        let _ = Codes.read_gamma_list_result (Bitbuf.reader buf) in
        true
      in
      try_decode ())

let qcheck_decoders_total_on_mangled_codewords =
  QCheck.Test.make ~name:"result decoders total on ECC-mangled codewords" ~count:1000
    QCheck.(triple (int_bound 3) (small_list bool) (pair small_nat small_nat))
    (fun (which, bits, (at, flips)) ->
      let level = List.nth Ecc.all which in
      let coded = Ecc.protect level (Bitbuf.of_bits bits) in
      let len = Bitbuf.length coded in
      let mangled =
        if len = 0 then coded
        else
          let b = ref coded in
          for k = 0 to min flips 4 do
            b := flip !b ((at + k) mod len)
          done;
          !b
      in
      (* whatever the decode yields — possibly a wrong payload — the
         downstream decoders must stay total on it *)
      match Ecc.unprotect level mangled with
      | Error _ -> true
      | Ok (payload, _) ->
        let _ = Codes.read_port_list_result (Bitbuf.reader payload) in
        let _ = Codes.read_marked_list_result (Bitbuf.reader payload) in
        let _ = Codes.read_gamma_list_result (Bitbuf.reader payload) in
        true)

let qcheck_hamming_beyond_power_is_detected_or_wrong_but_silent =
  QCheck.Test.make ~name:"hamming double flips never raise" ~count:1000
    QCheck.(triple (small_list bool) small_nat small_nat)
    (fun (bits, i, j) ->
      let coded = Ecc.protect Ecc.Hamming (Bitbuf.of_bits bits) in
      let len = Bitbuf.length coded in
      if len < 2 then true
      else
        let a = i mod len and b = j mod len in
        let mangled = if a = b then flip coded a else flip (flip coded a) b in
        match Ecc.unprotect Ecc.Hamming mangled with Ok _ | Error _ -> true)

(* {1 Protect wrapper} *)

let test_protect_advice_sizes () =
  let g = Netgraph.Families.build Netgraph.Families.Random_tree ~n:24 ~seed:7 in
  let oracle = Oracle_core.Wakeup.oracle () in
  let raw = oracle.Oracles.Oracle.advise g ~source:0 in
  List.iter
    (fun level ->
      let protected_advice = Oracles.Protect.advice level raw in
      let expected = Oracles.Protect.size_bits level raw in
      check_int
        (Ecc.name level ^ " size accounting")
        expected
        (Oracles.Advice.size_bits protected_advice);
      if level = Ecc.Raw then
        check_int "raw adds nothing" (Oracles.Advice.size_bits raw) expected
      else
        check_bool (Ecc.name level ^ " costs more") true
          (expected >= Oracles.Advice.size_bits raw))
    Ecc.all;
  (* the acceptance bound again, end to end: hamming-protected advice
     stays within 3x the raw oracle size *)
  let hamming = Oracles.Protect.size_bits Ecc.Hamming raw in
  check_bool "hamming advice <= 3x raw" true
    (hamming <= 3 * Oracles.Advice.size_bits raw)

let test_protect_oracle_wrapper () =
  let o = Oracle_core.Wakeup.oracle () in
  let wrapped = Oracles.Protect.oracle Ecc.Hamming o in
  check_bool "name records the level" true
    (String.length wrapped.Oracles.Oracle.name > String.length o.Oracles.Oracle.name);
  let same = Oracles.Protect.oracle Ecc.Raw o in
  check_string "raw leaves the oracle alone" o.Oracles.Oracle.name same.Oracles.Oracle.name

(* {1 Boundary codewords}

   All-zero and all-one strings of every level's codeword length for
   payloads of 0, 1, 7, 8 and 64 bits.  [unprotect] must not raise, and
   an [Ok] that corrected nothing must be canonical: protecting the
   decoded payload gives back the input. *)

let test_unprotect_boundary_codewords () =
  List.iter
    (fun level ->
      List.iter
        (fun m ->
          let len = Ecc.protected_length level m in
          List.iter
            (fun bit ->
              let coded = Bitbuf.of_bits (List.init len (fun _ -> bit)) in
              let name =
                Printf.sprintf "%s, %d all-%d bits (payload %d)" (Ecc.name level) len
                  (Bool.to_int bit) m
              in
              match Ecc.unprotect level coded with
              | exception e -> Alcotest.failf "%s: unprotect raised %s" name (Printexc.to_string e)
              | Ok (payload, 0) ->
                check_bool (name ^ ": re-protects to its input") true
                  (Bitbuf.equal (Ecc.protect level payload) coded)
              | Ok _ | Error _ -> ())
            [ false; true ])
        [ 0; 1; 7; 8; 64 ])
    Ecc.all

let suite =
  [
    Alcotest.test_case "level names" `Quick test_names;
    Alcotest.test_case "roundtrip + exact sizes" `Quick test_roundtrip_all_levels;
    Alcotest.test_case "empty fixed point" `Quick test_empty_is_fixed_point;
    Alcotest.test_case "overhead bounds" `Quick test_overhead_bounds;
    Alcotest.test_case "repetition validation" `Quick test_rep_k_validation;
    Alcotest.test_case "hamming corrects single flips" `Quick test_hamming_corrects_any_single_flip;
    Alcotest.test_case "crc detects single flips" `Quick test_crc_detects_single_flips;
    Alcotest.test_case "rep3 majority" `Quick test_rep3_corrects_one_flip_per_bit;
    Alcotest.test_case "framing errors rejected" `Quick test_framing_errors_rejected;
    QCheck_alcotest.to_alcotest qcheck_unprotect_total;
    QCheck_alcotest.to_alcotest qcheck_decoders_total;
    QCheck_alcotest.to_alcotest qcheck_decoders_total_on_mangled_codewords;
    QCheck_alcotest.to_alcotest qcheck_hamming_beyond_power_is_detected_or_wrong_but_silent;
    Alcotest.test_case "protected advice accounting" `Quick test_protect_advice_sizes;
    Alcotest.test_case "protect oracle wrapper" `Quick test_protect_oracle_wrapper;
    Alcotest.test_case "unprotect at all-zero and all-one codewords" `Quick
      test_unprotect_boundary_codewords;
  ]
