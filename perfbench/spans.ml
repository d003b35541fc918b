(* In-memory span recorder for the traced run.

   A span is (name, start, stop, parent).  Spans live in growable
   arrays until the process exits; nothing is written while a pass is
   being timed.  When recording is off, [with_] is a flag test and a
   direct call, so the untraced end-to-end passes run the same code
   without paying for the clock reads. *)

let enabled = ref false

let now = Unix.gettimeofday

type t = {
  mutable names : string array;
  mutable parents : int array;
  mutable starts : float array;
  mutable stops : float array;
  mutable count : int;
  mutable current : int;  (** innermost open span, -1 at top level *)
  mutable last_mark : float;  (** latest span close or record *)
}

let st =
  {
    names = Array.make 1024 "";
    parents = Array.make 1024 (-1);
    starts = Array.make 1024 0.;
    stops = Array.make 1024 0.;
    count = 0;
    current = -1;
    last_mark = 0.;
  }

let grow () =
  let cap = 2 * Array.length st.names in
  let ext a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 st.count;
    b
  in
  st.names <- ext st.names "";
  st.parents <- ext st.parents (-1);
  st.starts <- ext st.starts 0.;
  st.stops <- ext st.stops 0.

let push name ~parent ~start ~stop =
  if st.count = Array.length st.names then grow ();
  let id = st.count in
  st.names.(id) <- name;
  st.parents.(id) <- parent;
  st.starts.(id) <- start;
  st.stops.(id) <- stop;
  st.count <- id + 1;
  id

let with_ name f =
  if not !enabled then f ()
  else begin
    let id = push name ~parent:st.current ~start:(now ()) ~stop:nan in
    st.current <- id;
    let close () =
      let t = now () in
      st.stops.(id) <- t;
      st.last_mark <- t;
      st.current <- st.parents.(id)
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

let record name ~start ~stop =
  if !enabled then begin
    ignore (push name ~parent:st.current ~start ~stop);
    st.last_mark <- stop
  end

let last_mark () = st.last_mark

let mark () = st.count

(* Self time of every span in [from, upto): its duration minus the
   durations of its direct children.  Children never overlap (one
   domain), so this is the time the span spent outside all of them. *)
let self_times ~from ~upto =
  let self = Array.init (upto - from) (fun i -> st.stops.(from + i) -. st.starts.(from + i)) in
  for i = from to upto - 1 do
    let p = st.parents.(i) in
    if p >= from then self.(p - from) <- self.(p - from) -. (st.stops.(i) -. st.starts.(i))
  done;
  self

(* Per-name sums of self time over the spans in [from, upto), and the
   explained share of each span named [root] among them: the fraction
   of its duration covered by descendant spans. *)
let summarize ~from ~upto ~root =
  let self = self_times ~from ~upto in
  let sums = Hashtbl.create 16 in
  let shares = ref [] in
  for i = from to upto - 1 do
    let name = st.names.(i) in
    let prev = Option.value (Hashtbl.find_opt sums name) ~default:0. in
    Hashtbl.replace sums name (prev +. self.(i - from));
    if name = root then begin
      let dur = st.stops.(i) -. st.starts.(i) in
      shares := ((dur -. self.(i - from)) /. dur) :: !shares
    end
  done;
  (sums, List.rev !shares)

let write_jsonl path =
  let oc = open_out path in
  for i = 0 to st.count - 1 do
    Printf.fprintf oc "{\"id\":%d,\"name\":\"%s\",\"parent\":%d,\"start\":%.9f,\"stop\":%.9f}\n" i
      st.names.(i) st.parents.(i) st.starts.(i) st.stops.(i)
  done;
  close_out oc
