module Binary = Bitstring.Binary

type edge = int * int

let fail fmt = Printf.ksprintf invalid_arg fmt

let edge u v =
  if u = v then fail "Edge_discovery.edge: %d = %d" u v;
  if u < 1 || v < 1 then fail "Edge_discovery.edge: labels must be positive";
  (min u v, max u v)

type instance = {
  n : int;
  specials : (edge * int) list;
  excluded : edge list;
}

(* [X] and [Y] are sets: with both lists sorted, structural equality is
   instance equality, so [List.sort_uniq compare] dedupes a family the way
   Lemma 2.1 counts it. *)
let canonical i =
  { i with specials = List.sort compare i.specials; excluded = List.sort_uniq compare i.excluded }

let check_edge ~n (u, v) =
  if not (1 <= u && u < v && v <= n) then fail "Edge_discovery: edge (%d,%d) not in K*_%d" u v n

let make_instance ~n ~specials ~excluded =
  List.iter (fun (e, _) -> check_edge ~n e) specials;
  List.iter (check_edge ~n) excluded;
  let xs = List.map fst specials in
  let module ES = Set.Make (struct
    type t = edge

    let compare = compare
  end) in
  let xset = ES.of_list xs in
  if ES.cardinal xset <> List.length xs then fail "Edge_discovery: duplicate special edge";
  let yset = ES.of_list excluded in
  if not (ES.is_empty (ES.inter xset yset)) then fail "Edge_discovery: X and Y intersect";
  let labels = List.sort compare (List.map snd specials) in
  if labels <> List.init (List.length specials) (fun i -> i + 1) then
    fail "Edge_discovery: labels are not a permutation of 1..|X|";
  canonical { n; specials; excluded }

let all_edges ~n =
  let acc = ref [] in
  for u = n downto 1 do
    for v = n downto u + 1 do
      acc := (u, v) :: !acc
    done
  done;
  !acc

let rec combinations k l =
  if k = 0 then [ [] ]
  else
    match l with
    | [] -> []
    | x :: rest ->
      List.map (fun c -> x :: c) (combinations (k - 1) rest) @ combinations k rest

let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x ->
        let rest = List.filter (fun y -> y <> x) l in
        List.map (fun p -> x :: p) (permutations rest))
      l

let enumerate_instances ~n ~x_size ~excluded =
  let allowed = List.filter (fun e -> not (List.mem e excluded)) (all_edges ~n) in
  let subsets = combinations x_size allowed in
  List.concat_map
    (fun subset ->
      List.map
        (fun perm -> make_instance ~n ~specials:(List.combine subset perm) ~excluded)
        (permutations (List.init x_size (fun i -> i + 1))))
    subsets

let sample_instances ~n ~x_size ~excluded ~count st =
  let allowed = Array.of_list (List.filter (fun e -> not (List.mem e excluded)) (all_edges ~n)) in
  if Array.length allowed < x_size then fail "Edge_discovery.sample_instances: not enough edges";
  List.init count (fun _ ->
      let pool = Array.copy allowed in
      for i = Array.length pool - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let tmp = pool.(i) in
        pool.(i) <- pool.(j);
        pool.(j) <- tmp
      done;
      let labels = Array.init x_size (fun i -> i + 1) in
      for i = x_size - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let tmp = labels.(i) in
        labels.(i) <- labels.(j);
        labels.(j) <- tmp
      done;
      let specials = List.init x_size (fun i -> (pool.(i), labels.(i))) in
      make_instance ~n ~specials ~excluded)

type answer = Regular | Special of int

type adversary = {
  mutable live : instance list;
  initial : int;
  x : int;
  adv_n : int;
  adv_excluded : edge list;
  decided : (edge, answer) Hashtbl.t;
  mutable t : int;
  mutable r : int;
  mutable found : (edge * int) list;
}

let adversary instances =
  (* Lemma 2.1 counts a set of instances: a family listing one instance
     twice would claim a bound its adversary cannot enforce, since both
     copies survive every answer. *)
  let instances = List.sort_uniq compare (List.map canonical instances) in
  match instances with
  | [] -> fail "Edge_discovery.adversary: empty family"
  | first :: rest ->
    List.iter
      (fun i ->
        if
          i.n <> first.n
          || List.length i.specials <> List.length first.specials
          || i.excluded <> first.excluded
        then fail "Edge_discovery.adversary: non-uniform family")
      rest;
    {
      live = instances;
      initial = List.length instances;
      x = List.length first.specials;
      adv_n = first.n;
      adv_excluded = first.excluded;
      decided = Hashtbl.create 64;
      t = 0;
      r = 0;
      found = [];
    }

let check_invariant adv =
  (* x_{t,r} ≥ |I|·(|X|-r)! / (2^t·|X|!), in log₂ space with slack for
     float rounding. *)
  let lhs = Float.log2 (float_of_int (List.length adv.live)) in
  let rhs =
    Float.log2 (float_of_int adv.initial)
    +. Binary.log2_factorial (adv.x - adv.r)
    -. float_of_int adv.t -. Binary.log2_factorial adv.x
  in
  if lhs < rhs -. 1e-6 then
    failwith
      (Printf.sprintf "Edge_discovery: counting invariant violated (t=%d r=%d live=%d)" adv.t
         adv.r (List.length adv.live))

let label_of e inst = List.assoc_opt e inst.specials

let probe adv e =
  check_edge ~n:adv.adv_n e;
  adv.t <- adv.t + 1;
  match Hashtbl.find_opt adv.decided e with
  | Some ans -> ans
  | None ->
    if List.mem e adv.adv_excluded then begin
      Hashtbl.replace adv.decided e Regular;
      Regular
    end
    else begin
      let jspecial, jregular = List.partition (fun i -> label_of e i <> None) adv.live in
      let ans =
        if List.length jspecial >= List.length jregular then begin
          (* Most popular label wins. *)
          let counts = Hashtbl.create 8 in
          List.iter
            (fun i ->
              match label_of e i with
              | Some l ->
                Hashtbl.replace counts l (1 + Option.value ~default:0 (Hashtbl.find_opt counts l))
              | None -> assert false)
            jspecial;
          let best_label, _ =
            Hashtbl.fold
              (fun l c (bl, bc) -> if c > bc || (c = bc && l < bl) then (l, c) else (bl, bc))
              counts (max_int, 0)
          in
          adv.live <- List.filter (fun i -> label_of e i = Some best_label) jspecial;
          adv.r <- adv.r + 1;
          adv.found <- (e, best_label) :: adv.found;
          Special best_label
        end
        else begin
          adv.live <- jregular;
          Regular
        end
      in
      Hashtbl.replace adv.decided e ans;
      check_invariant adv;
      ans
    end

let probes adv = adv.t

let discovered adv = List.rev adv.found

let active adv = List.length adv.live

let solved adv = adv.r = adv.x

let x_size adv = adv.x

let lower_bound adv =
  Float.log2 (float_of_int adv.initial) -. Binary.log2_factorial adv.x

type strategy = {
  strategy_name : string;
  next_probe : n:int -> x_size:int -> excluded:edge list -> history:(edge * answer) list -> edge;
}

let sequential =
  {
    strategy_name = "sequential";
    next_probe =
      (fun ~n ~x_size:_ ~excluded ~history ->
        let probed = List.map fst history in
        match
          List.find_opt
            (fun e -> (not (List.mem e excluded)) && not (List.mem e probed))
            (all_edges ~n)
        with
        | Some e -> e
        | None -> fail "sequential strategy: all edges probed");
  }

let random_strategy ~seed =
  let st = Random.State.make [| seed |] in
  {
    strategy_name = Printf.sprintf "random(%d)" seed;
    next_probe =
      (fun ~n ~x_size:_ ~excluded ~history ->
        let probed = List.map fst history in
        let candidates =
          List.filter
            (fun e -> (not (List.mem e excluded)) && not (List.mem e probed))
            (all_edges ~n)
        in
        match candidates with
        | [] -> fail "random strategy: all edges probed"
        | _ :: _ -> List.nth candidates (Random.State.int st (List.length candidates)));
  }

type outcome = {
  probes_used : int;
  found : (edge * int) list;
  bound : float;
}

let play adv strategy =
  let bound = lower_bound adv in
  let limit = (5 * adv.adv_n * adv.adv_n) + 10 in
  let rec loop history steps =
    if solved adv then { probes_used = probes adv; found = discovered adv; bound }
    else if steps > limit then failwith "Edge_discovery.play: strategy stalled"
    else begin
      let e =
        strategy.next_probe ~n:adv.adv_n ~x_size:adv.x ~excluded:adv.adv_excluded ~history
      in
      let ans = probe adv e in
      loop (history @ [ (e, ans) ]) (steps + 1)
    end
  in
  loop [] 0
