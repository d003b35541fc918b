(* Error protection over advice bit strings.

   All three codes operate on the whole string at once: advice is handed
   to a node as one atomic string, so the unit of corruption-and-repair
   is the string, not any internal field.  Encoders build a fresh Bitbuf
   and never mutate their input; decoders are total (they return [Error]
   rather than raise on malformed input) because corrupted strings are
   exactly the expected input. *)

type level = Raw | Crc | Hamming | Repetition of int

let name = function
  | Raw -> "raw"
  | Crc -> "crc"
  | Hamming -> "hamming"
  | Repetition k -> Printf.sprintf "rep%d" k

let of_name s =
  match String.lowercase_ascii (String.trim s) with
  | "raw" | "none" -> Ok Raw
  | "crc" -> Ok Crc
  | "hamming" | "sec" -> Ok Hamming
  | s when String.length s > 3 && String.sub s 0 3 = "rep" -> (
      match int_of_string_opt (String.sub s 3 (String.length s - 3)) with
      | Some k when k >= 2 -> Ok (Repetition k)
      | Some k -> Error (Printf.sprintf "repetition factor must be >= 2, got %d" k)
      | None -> Error (Printf.sprintf "bad repetition level %S" s))
  | s ->
      Error
        (Printf.sprintf "unknown protection level %S (raw|crc|hamming|repK)" s)

let all = [ Raw; Crc; Hamming; Repetition 3 ]

let check_rep k =
  if k < 2 then invalid_arg (Printf.sprintf "Ecc.Repetition: k = %d < 2" k)

(* The bit-serial CRC engine: an MSB-first shift register of [width]
   bits, initialised to zero, reduced by [poly] whenever a set bit falls
   off the top, with [width] flushing zero bits appended by [crc_finish]
   (the "augmented message" formulation — no reflection, no final XOR).
   This one engine backs both the 8-bit advice CRC below and the 32-bit
   frame trailer of {!Frame} — the journal's record framing reuses the
   exact code path the advice layer already trusts. *)

let crc_update ~poly ~width reg b =
  let mask = (1 lsl width) - 1 in
  let msb = (reg lsr (width - 1)) land 1 in
  let reg = ((reg lsl 1) lor (if b then 1 else 0)) land mask in
  if msb = 1 then reg lxor poly land mask else reg

let crc_finish ~poly ~width reg =
  let r = ref reg in
  for _ = 1 to width do
    r := crc_update ~poly ~width !r false
  done;
  !r

(* CRC-8, polynomial x^8 + x^2 + x + 1 (0x07), bit-serial over the
   payload followed by eight flushing zero bits.  Good enough to detect
   every single- and double-bit flip at the advice lengths the paper's
   codes produce (well under the 2^8 burst horizon for odd counts). *)
let crc_width = 8

let crc8 bits =
  List.fold_left (crc_update ~poly:0x07 ~width:crc_width) 0 bits
  |> crc_finish ~poly:0x07 ~width:crc_width

(* Hamming SEC: parity bits live at the power-of-two positions of the
   1-indexed codeword; parity bit p covers every position whose index
   has bit p set.  The parity count is recovered from the codeword
   length alone (r = floor(log2 n) + 1), checked for consistency, so
   the decoder needs no out-of-band framing. *)

let hamming_r m =
  (* smallest r with 2^r >= m + r + 1 *)
  let rec go r = if 1 lsl r >= m + r + 1 then r else go (r + 1) in
  go 0

let is_pow2 i = i land (i - 1) = 0

let protected_length level len =
  if len = 0 then 0
  else
    match level with
    | Raw -> len
    | Crc -> len + crc_width
    | Hamming -> len + hamming_r len
    | Repetition k ->
        check_rep k;
        k * len

let overhead_bound = function
  | Raw -> 1.0
  | Crc -> 9.0
  | Hamming -> 3.0
  | Repetition k -> float_of_int k

let protect level (b : Bitbuf.t) =
  match level with
  | Raw -> b
  | _ when Bitbuf.length b = 0 -> Bitbuf.create ()
  | Crc ->
      let out = Bitbuf.copy b in
      let c = crc8 (Bitbuf.to_bits b) in
      for i = crc_width - 1 downto 0 do
        Bitbuf.add_bit out ((c lsr i) land 1 = 1)
      done;
      out
  | Hamming ->
      let m = Bitbuf.length b in
      let r = hamming_r m in
      let n = m + r in
      let code = Array.make (n + 1) false in
      let di = ref 0 in
      for i = 1 to n do
        if not (is_pow2 i) then begin
          code.(i) <- Bitbuf.get b !di;
          incr di
        end
      done;
      for p = 0 to r - 1 do
        let mask = 1 lsl p in
        let parity = ref false in
        for i = 1 to n do
          if i land mask <> 0 && not (is_pow2 i) && code.(i) then
            parity := not !parity
        done;
        code.(mask) <- !parity
      done;
      let out = Bitbuf.create () in
      for i = 1 to n do
        Bitbuf.add_bit out code.(i)
      done;
      out
  | Repetition k ->
      check_rep k;
      let out = Bitbuf.create () in
      for i = 0 to Bitbuf.length b - 1 do
        for _ = 1 to k do
          Bitbuf.add_bit out (Bitbuf.get b i)
        done
      done;
      out

let unprotect level (b : Bitbuf.t) =
  let len = Bitbuf.length b in
  match level with
  | Raw -> Ok (b, 0)
  | _ when len = 0 -> Ok (Bitbuf.create (), 0)
  | Crc ->
      if len <= crc_width then
        Error (Printf.sprintf "crc: %d bits is too short to be framed" len)
      else
        let m = len - crc_width in
        let payload = Bitbuf.create () in
        for i = 0 to m - 1 do
          Bitbuf.add_bit payload (Bitbuf.get b i)
        done;
        let stored = ref 0 in
        for i = m to len - 1 do
          stored := (!stored lsl 1) lor (if Bitbuf.get b i then 1 else 0)
        done;
        if crc8 (Bitbuf.to_bits payload) = !stored then Ok (payload, 0)
        else Error "crc: checksum mismatch"
  | Hamming ->
      (* r is a function of the codeword length; reject lengths that no
         payload encodes to (e.g. a bare parity prefix). *)
      let r =
        let rec go r = if 1 lsl (r + 1) <= len then go (r + 1) else r + 1 in
        go 0
      in
      let m = len - r in
      if m < 1 || protected_length Hamming m <> len then
        Error (Printf.sprintf "hamming: %d bits is not a codeword length" len)
      else
        let code = Array.make (len + 1) false in
        for i = 1 to len do
          code.(i) <- Bitbuf.get b (i - 1)
        done;
        let syndrome = ref 0 in
        for p = 0 to r - 1 do
          let mask = 1 lsl p in
          let parity = ref false in
          for i = 1 to len do
            if i land mask <> 0 && code.(i) then parity := not !parity
          done;
          if !parity then syndrome := !syndrome lor mask
        done;
        if !syndrome > len then
          Error
            (Printf.sprintf "hamming: syndrome %d outside codeword" !syndrome)
        else begin
          let corrected = if !syndrome = 0 then 0 else 1 in
          if !syndrome > 0 then code.(!syndrome) <- not code.(!syndrome);
          let payload = Bitbuf.create () in
          for i = 1 to len do
            if not (is_pow2 i) then Bitbuf.add_bit payload code.(i)
          done;
          Ok (payload, corrected)
        end
  | Repetition k ->
      check_rep k;
      if len mod k <> 0 then
        Error
          (Printf.sprintf "rep%d: length %d is not a multiple of %d" k len k)
      else begin
        let payload = Bitbuf.create () in
        let corrected = ref 0 in
        let tie = ref false in
        for g = 0 to (len / k) - 1 do
          let ones = ref 0 in
          for j = 0 to k - 1 do
            if Bitbuf.get b ((g * k) + j) then incr ones
          done;
          if 2 * !ones = k then tie := true
          else begin
            let bit = 2 * !ones > k in
            let minority = if bit then k - !ones else !ones in
            if minority > 0 then incr corrected;
            Bitbuf.add_bit payload bit
          end
        done;
        if !tie then Error (Printf.sprintf "rep%d: majority tie" k)
        else Ok (payload, !corrected)
      end
