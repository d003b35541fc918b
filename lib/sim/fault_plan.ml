type advice_fault =
  | Flip of int
  | Truncate of int
  | Swap of int * int
  | Garbage of int

type t = {
  seed : int;
  drop : float;
  duplicate : float;
  reorder_every : int;
  delay : (float * int) option;
  crashes : (int * int) list;
  dead : int list;
  advice : advice_fault list;
}

let none =
  {
    seed = 0;
    drop = 0.0;
    duplicate = 0.0;
    reorder_every = 0;
    delay = None;
    crashes = [];
    dead = [];
    advice = [];
  }

let is_none t = { t with seed = 0 } = none

let has_network_faults t =
  t.drop > 0.0 || t.duplicate > 0.0 || t.reorder_every > 0 || t.delay <> None
  || t.crashes <> [] || t.dead <> []

let advice_fault_to_string = function
  | Flip k -> Printf.sprintf "advice-flip=%d" k
  | Truncate k -> Printf.sprintf "advice-trunc=%d" k
  | Swap (u, v) -> Printf.sprintf "advice-swap=%d:%d" u v
  | Garbage k -> Printf.sprintf "advice-garbage=%d" k

let to_string t =
  if is_none t && t.seed = 0 then "none"
  else begin
    let parts = ref [] in
    let add s = parts := s :: !parts in
    if t.drop > 0.0 then add (Printf.sprintf "drop=%g" t.drop);
    if t.duplicate > 0.0 then add (Printf.sprintf "dup=%g" t.duplicate);
    if t.reorder_every > 0 then add (Printf.sprintf "reorder=%d" t.reorder_every);
    (match t.delay with
    | Some (p, k) -> add (Printf.sprintf "delay=%g:%d" p k)
    | None -> ());
    List.iter (fun (v, s) -> add (Printf.sprintf "crash=%d@%d" v s)) t.crashes;
    List.iter (fun v -> add (Printf.sprintf "dead=%d" v)) t.dead;
    List.iter (fun f -> add (advice_fault_to_string f)) t.advice;
    if t.seed <> 0 then add (Printf.sprintf "seed=%d" t.seed);
    match !parts with [] -> "none" | parts -> String.concat "," (List.rev parts)
  end

(* "drop=0.1,advice-flip=4,crash=3@17,seed=7" — comma-separated k=v tokens. *)
let of_string s =
  let ( let* ) = Result.bind in
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let float_field tok v =
    match float_of_string_opt v with
    | Some f when f >= 0.0 && f < 1.0 -> Ok f
    | Some _ -> fail "%s: probability must be in [0,1)" tok
    | None -> fail "%s: not a float" tok
  in
  let int_field tok v =
    match int_of_string_opt v with
    | Some i when i >= 0 -> Ok i
    | Some _ -> fail "%s: must be non-negative" tok
    | None -> fail "%s: not an integer" tok
  in
  let pair tok sep v =
    match String.split_on_char sep v with
    | [ a; b ] ->
      let* a = int_field tok a in
      let* b = int_field tok b in
      Ok (a, b)
    | _ -> fail "%s: expected two %C-separated integers" tok sep
  in
  let token plan tok =
    match String.index_opt tok '=' with
    | None -> (
      match tok with
      | "" | "none" -> Ok plan
      | _ -> fail "%S: expected KEY=VALUE" tok)
    | Some i -> (
      let key = String.sub tok 0 i in
      let v = String.sub tok (i + 1) (String.length tok - i - 1) in
      match key with
      | "seed" ->
        let* seed = int_field tok v in
        Ok { plan with seed }
      | "drop" ->
        let* drop = float_field tok v in
        Ok { plan with drop }
      | "dup" | "duplicate" ->
        let* duplicate = float_field tok v in
        Ok { plan with duplicate }
      | "reorder" ->
        let* reorder_every = int_field tok v in
        Ok { plan with reorder_every }
      | "delay" -> (
        match String.split_on_char ':' v with
        | [ p; k ] ->
          let* p = float_field tok p in
          let* k = int_field tok k in
          if k < 1 then fail "%s: max delay must be >= 1" tok
          else Ok { plan with delay = Some (p, k) }
        | _ -> fail "%s: expected PROB:MAXSTEPS" tok)
      | "crash" ->
        let* vs = pair tok '@' v in
        Ok { plan with crashes = plan.crashes @ [ vs ] }
      | "dead" ->
        let* d = int_field tok v in
        Ok { plan with dead = plan.dead @ [ d ] }
      | "advice-flip" ->
        let* k = int_field tok v in
        Ok { plan with advice = plan.advice @ [ Flip k ] }
      | "advice-trunc" ->
        let* k = int_field tok v in
        Ok { plan with advice = plan.advice @ [ Truncate k ] }
      | "advice-swap" ->
        let* uv = pair tok ':' v in
        Ok { plan with advice = plan.advice @ [ Swap (fst uv, snd uv) ] }
      | "advice-garbage" ->
        let* k = int_field tok v in
        Ok { plan with advice = plan.advice @ [ Garbage k ] }
      | _ -> fail "%S: unknown fault key" tok)
  in
  List.fold_left
    (fun acc tok -> Result.bind acc (fun plan -> token plan (String.trim tok)))
    (Ok none)
    (String.split_on_char ',' s)

let of_string_exn s =
  match of_string s with
  | Ok t -> t
  | Error m -> invalid_arg (Printf.sprintf "Fault_plan.of_string: %s" m)

let builtins =
  let p s = (s, of_string_exn s) in
  [
    ("none", none);
    p "drop=0.1,seed=7";
    p "dup=0.15,seed=11";
    p "reorder=4";
    p "delay=0.3:5,seed=13";
    p "crash=1@3";
    p "dead=1";
    p "advice-flip=8,seed=5";
    p "advice-trunc=1";
    p "advice-swap=1:2";
    p "advice-garbage=16,seed=3";
    p "drop=0.05,dup=0.05,delay=0.2:3,advice-flip=4,seed=23";
  ]
