module Ecc = Bitstring.Ecc

let advice level adv =
  match level with Ecc.Raw -> adv | _ -> Advice.mapi (fun _ b -> Ecc.protect level b) adv

let oracle level (o : Oracle.t) =
  match level with
  | Ecc.Raw -> o
  | _ ->
    Oracle.make
      ~name:(Printf.sprintf "%s|ecc:%s" o.Oracle.name (Ecc.name level))
      (fun g ~source -> advice level (o.Oracle.advise g ~source))

let size_bits level adv =
  let total = ref 0 in
  for v = 0 to Advice.n adv - 1 do
    total := !total + Ecc.protected_length level (Bitstring.Bitbuf.length (Advice.get adv v))
  done;
  !total
