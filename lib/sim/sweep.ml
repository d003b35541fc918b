module Families = Netgraph.Families

type point = {
  index : int;
  protocol : string;
  family : Families.t;
  n : int;
  scheduler : Scheduler.t;
  plan : Fault_plan.t;
  rep : int;
  seed : int;
}

type grid = {
  protocols : string list;
  families : Families.t list;
  ns : int list;
  schedulers : Scheduler.t list;
  plans : Fault_plan.t list;
  reps : int;
  base_seed : int;
}

(* FNV-1a-style mix over the canonical token strings, kept in OCaml's
   native int (63-bit wraparound on 64-bit platforms; the offset basis is
   the FNV64 one truncated to fit an int literal).  Explicit rather than
   [Hashtbl.hash] because task seeds are part of the output contract:
   they must never change under us when the stdlib's hash does. *)
let fnv_prime = 0x100000001b3

let derive_seed base tokens =
  let h = ref 0x3bf29ce484222325 in
  let mix_byte b = h := (!h lxor b) * fnv_prime in
  let mix_string s =
    String.iter (fun c -> mix_byte (Char.code c)) s;
    mix_byte 0xff (* token separator: ["ab";"c"] must differ from ["a";"bc"] *)
  in
  mix_string (string_of_int base);
  List.iter mix_string tokens;
  !h land max_int

let point_seed ~base ~protocol ~family ~n ~scheduler ~plan ~rep =
  derive_seed base
    [
      "point";
      protocol;
      Families.name family;
      string_of_int n;
      Scheduler.name scheduler;
      Fault_plan.to_string plan;
      string_of_int rep;
    ]

let graph_seed grid point =
  derive_seed grid.base_seed
    [ "graph"; Families.name point.family; string_of_int point.n; string_of_int point.rep ]

let points grid =
  if grid.reps < 1 then invalid_arg "Sweep.points: reps < 1";
  let acc = ref [] in
  let count = ref 0 in
  List.iter
    (fun protocol ->
      List.iter
        (fun plan ->
          List.iter
            (fun family ->
              List.iter
                (fun n ->
                  List.iter
                    (fun scheduler ->
                      for rep = 0 to grid.reps - 1 do
                        let seed =
                          point_seed ~base:grid.base_seed ~protocol ~family ~n ~scheduler ~plan
                            ~rep
                        in
                        acc :=
                          { index = !count; protocol; family; n; scheduler; plan; rep; seed }
                          :: !acc;
                        incr count
                      done)
                    grid.schedulers)
                grid.ns)
            grid.families)
        grid.plans)
    grid.protocols;
  let arr = Array.of_list (List.rev !acc) in
  arr

let point_label p =
  Printf.sprintf "%s/%s/%d/%s/%s/%d" p.protocol (Families.name p.family) p.n
    (Scheduler.name p.scheduler) (Fault_plan.to_string p.plan) p.rep

(* Grid spec strings.  Axes separated by ';', values by ','; plan specs
   contain commas, so plan alternatives use '|'. *)

let default_grid =
  {
    protocols = [ "wakeup"; "broadcast" ];
    families = [ Families.Sparse_random ];
    ns = [ 64 ];
    schedulers = [ Scheduler.Async_fifo ];
    plans = [ Fault_plan.none ];
    reps = 1;
    base_seed = 42;
  }

let split_on sep s = String.split_on_char sep s |> List.map String.trim |> List.filter (( <> ) "")

let of_string spec =
  let ( let* ) = Result.bind in
  let parse_axis grid kv =
    match String.index_opt kv '=' with
    | None -> Error (Printf.sprintf "sweep spec: missing '=' in %S" kv)
    | Some eq ->
      let key = String.trim (String.sub kv 0 eq) in
      let value = String.sub kv (eq + 1) (String.length kv - eq - 1) in
      let int_list () =
        let parts = split_on ',' value in
        if parts = [] then Error (Printf.sprintf "sweep spec: empty %s" key)
        else
          List.fold_left
            (fun acc s ->
              let* acc = acc in
              match int_of_string_opt s with
              | Some i -> Ok (i :: acc)
              | None -> Error (Printf.sprintf "sweep spec: bad integer %S in %s" s key))
            (Ok []) parts
          |> Result.map List.rev
      in
      (match key with
      | "protocols" ->
        let ps = split_on ',' value in
        if ps = [] then Error "sweep spec: empty protocols" else Ok { grid with protocols = ps }
      | "families" ->
        let* fams =
          List.fold_left
            (fun acc name ->
              let* acc = acc in
              match Families.of_name name with
              | Some f -> Ok (f :: acc)
              | None -> Error (Printf.sprintf "sweep spec: unknown family %S" name))
            (Ok []) (split_on ',' value)
        in
        if fams = [] then Error "sweep spec: empty families"
        else Ok { grid with families = List.rev fams }
      | "ns" ->
        let* ns = int_list () in
        if List.exists (fun n -> n < 1) ns then Error "sweep spec: ns must be >= 1"
        else Ok { grid with ns }
      | "scheds" ->
        let* scheds =
          List.fold_left
            (fun acc name ->
              let* acc = acc in
              match Scheduler.of_name name with
              | Some s -> Ok (s :: acc)
              | None -> Error (Printf.sprintf "sweep spec: unknown scheduler %S" name))
            (Ok []) (split_on ',' value)
        in
        if scheds = [] then Error "sweep spec: empty scheds"
        else Ok { grid with schedulers = List.rev scheds }
      | "plans" ->
        let* plans =
          List.fold_left
            (fun acc s ->
              let* acc = acc in
              match Fault_plan.of_string s with
              | Ok p -> Ok (p :: acc)
              | Error e -> Error (Printf.sprintf "sweep spec: plan %S: %s" s e))
            (Ok []) (split_on '|' value)
        in
        if plans = [] then Error "sweep spec: empty plans"
        else Ok { grid with plans = List.rev plans }
      | "reps" -> (
        match int_of_string_opt (String.trim value) with
        | Some r when r >= 1 -> Ok { grid with reps = r }
        | _ -> Error (Printf.sprintf "sweep spec: bad reps %S" value))
      | "seed" -> (
        match int_of_string_opt (String.trim value) with
        | Some s -> Ok { grid with base_seed = s }
        | None -> Error (Printf.sprintf "sweep spec: bad seed %S" value))
      | _ -> Error (Printf.sprintf "sweep spec: unknown axis %S" key))
  in
  List.fold_left
    (fun acc kv ->
      let* grid = acc in
      parse_axis grid kv)
    (Ok default_grid) (split_on ';' spec)

let to_string grid =
  String.concat ";"
    [
      "protocols=" ^ String.concat "," grid.protocols;
      "families=" ^ String.concat "," (List.map Families.name grid.families);
      "ns=" ^ String.concat "," (List.map string_of_int grid.ns);
      "scheds=" ^ String.concat "," (List.map Scheduler.name grid.schedulers);
      "plans=" ^ String.concat "|" (List.map Fault_plan.to_string grid.plans);
      "reps=" ^ string_of_int grid.reps;
      "seed=" ^ string_of_int grid.base_seed;
    ]

module Cache = struct
  type ('k, 'v) t = { tbl : ('k, 'v) Hashtbl.t; mutable hits : int; mutable misses : int }

  let create () = { tbl = Hashtbl.create 32; hits = 0; misses = 0 }

  let find c k build =
    match Hashtbl.find_opt c.tbl k with
    | Some v ->
      c.hits <- c.hits + 1;
      v
    | None ->
      c.misses <- c.misses + 1;
      let v = build () in
      Hashtbl.add c.tbl k v;
      v

  let hits c = c.hits

  let misses c = c.misses
end

(* A task failure as one printable string: the exception, plus the
   raise-site backtrace when the runtime recorded one (it is captured on
   the worker domain, so it points at the task body, not the join). *)
let error_string e bt =
  let msg = Printexc.to_string e in
  match String.trim (Printexc.raw_backtrace_to_string bt) with
  | "" -> msg
  | b -> msg ^ "\n" ^ b

let resolve_jobs = function Some j -> max 1 j | None -> Pool.default_jobs ()

(* [f] over the tasks at indices [idx], on [pool] with per-worker
   [locals]; results are aligned with [idx]. *)
let map_indices pool locals ~f tasks idx =
  Pool.map_local pool locals (fun w ci -> f w idx.(ci) tasks.(idx.(ci))) (Array.length idx)
  |> Array.map (function Ok v -> Ok v | Error (e, bt) -> Error (error_string e bt))

let map ?jobs ~local ~f tasks =
  Pool.with_pool ~jobs:(resolve_jobs jobs) (fun pool ->
      map_indices pool (Pool.locals pool local) ~f tasks (Array.init (Array.length tasks) Fun.id))

(* {1 Journaled execution}

   The crash-safe path: tasks whose key is already journaled are never
   re-executed, the rest run over the pool in fixed-size chunks, and
   each chunk's results are appended to the journal — in canonical task
   order, on the submitting domain, flushed per record — before the
   next chunk starts.  Emission stays a single ordered pass at the end,
   reading every row (replayed or fresh) from the in-memory index, so
   the output is byte-identical to an uninterrupted in-memory run at
   any job count, and the journal file itself is too: chunking is keyed
   to task order, never to worker identity. *)

type journal_stats = {
  total : int;
  executed : int;
  skipped : int;
  failed : (int * string) list;
  recovery : Journal.stats option;
}

let default_chunk = 64

(* The executor-agnostic core: [run idx] must evaluate the tasks at
   indices [idx] (a slice of the canonical to-do order) and return an
   index-aligned result array.  The pool path and the distributed
   dispatch path both plug in here; everything that makes the journal
   and the emitted rows deterministic — key validation, replay, chunked
   canonical-order appends from this domain, one ordered emission pass —
   lives below and is shared by both. *)
let map_journaled_via ?journal ?(chunk = default_chunk) ?on_append ~key ~run ~emit tasks =
  if chunk < 1 then invalid_arg "Sweep.map_journaled: chunk < 1";
  let total = Array.length tasks in
  let keys = Array.map key tasks in
  let seen = Hashtbl.create total in
  Array.iteri
    (fun i k ->
      if k < 0 then invalid_arg "Sweep.map_journaled: negative key";
      match Hashtbl.find_opt seen k with
      | Some j ->
        invalid_arg
          (Printf.sprintf "Sweep.map_journaled: tasks %d and %d share key %d (hash collision?)"
             j i k)
      | None -> Hashtbl.add seen k i)
    keys;
  match
    match journal with
    | None -> Ok None
    | Some (path, ctx) -> (
      match Journal.open_ ~expect:ctx ~path () with
      | Ok (j, recovery) -> Ok (Some (j, recovery))
      | Error e -> Error e)
  with
  | Error e -> Error e
  | Ok opened ->
    let results : Journal.entry option array = Array.make total None in
    let skipped = ref 0 in
    (match opened with
    | None -> ()
    | Some (j, _) ->
      Array.iteri
        (fun i k ->
          match Journal.find j k with
          | Some entry ->
            results.(i) <- Some entry;
            incr skipped
          | None -> ())
        keys);
    let todo = ref [] in
    for i = total - 1 downto 0 do
      if results.(i) = None then todo := i :: !todo
    done;
    let todo = Array.of_list !todo in
    let failed = ref [] in
    let executed = ref 0 in
    let remaining = Array.length todo in
    let start = ref 0 in
    while !start < remaining do
      let stop = min remaining (!start + chunk) in
      let idx = Array.sub todo !start (stop - !start) in
      let chunk_results = run idx in
      if Array.length chunk_results <> Array.length idx then
        invalid_arg "Sweep.map_journaled: run returned a misaligned result array";
      (* Post-join, canonical order, submitting domain: the only
         writer the journal ever sees. *)
      Array.iteri
        (fun ci result ->
          let i = idx.(ci) in
          match result with
          | Error msg -> failed := (i, msg) :: !failed
          | Ok entry ->
            results.(i) <- Some entry;
            incr executed;
            (match opened with
            | None -> ()
            | Some (j, _) ->
              Journal.append j ~key:keys.(i) entry;
              (match on_append with
              | Some hook -> hook (Journal.appended j)
              | None -> ())))
        chunk_results;
      start := stop
    done;
    (match opened with None -> () | Some (j, _) -> Journal.close j);
    Array.iteri
      (fun i result -> match result with Some entry -> emit i tasks.(i) entry | None -> ())
      results;
    Ok
      {
        total;
        executed = !executed;
        skipped = !skipped;
        failed = List.rev !failed;
        recovery = (match opened with Some (_, r) -> Some r | None -> None);
      }

let map_journaled ?jobs ?journal ?chunk ?on_append ~key ~local ~f ~emit tasks =
  Pool.with_pool ~jobs:(resolve_jobs jobs) (fun pool ->
      (* One locals handle for every chunk: a chunk boundary must not
         throw away the graphs and advice the next chunk reuses. *)
      let locals = Pool.locals pool local in
      map_journaled_via ?journal ?chunk ?on_append ~key ~run:(map_indices pool locals ~f tasks)
        ~emit tasks)

let run_journaled ?jobs ?journal ?(context = "") ?chunk ?on_append ~local ~f ~emit grid =
  let journal =
    Option.map (fun path -> (path, { Journal.spec = to_string grid; extra = context })) journal
  in
  map_journaled ?jobs ?journal ?chunk ?on_append
    ~key:(fun p -> p.seed)
    ~local
    ~f:(fun w _i p -> f w p)
    ~emit:(fun _i p entry -> emit p entry)
    (points grid)
