(* [owner] is the id of the domain that created the sink.  Sinks are
   single-writer by contract: the on_event closures (file buffers, ring
   cursors, counters) are not synchronized, so a cross-domain emit would
   silently interleave corrupt output.  We fail fast instead — parallel
   sweeps must route rows through the ordered post-join emitter on the
   owning domain (see Sim.Sweep), never share a sink across workers. *)
type t = {
  mutable closed : bool;
  owner : int option;  (* None = unowned, exempt from the check (null) *)
  on_event : Event.t -> unit;
  on_close : unit -> unit;
}

let make ?(close = fun () -> ()) on_event =
  { closed = false; owner = Some (Domain.self () :> int); on_event; on_close = close }

let emit t ev =
  if not t.closed then begin
    (match t.owner with
    | Some owner when owner <> (Domain.self () :> int) ->
      failwith
        (Printf.sprintf
           "Obs.Sink.emit: sink owned by domain %d used from domain %d (sinks are \
            single-writer; emit rows after the join instead)"
           owner
           (Domain.self () :> int))
    | _ -> ());
    t.on_event ev
  end

let close t =
  if not t.closed then begin
    t.closed <- true;
    t.on_close ()
  end

let null = { closed = false; owner = None; on_event = (fun _ -> ()); on_close = (fun () -> ()) }

let tee sinks =
  make
    ~close:(fun () -> List.iter close sinks)
    (fun ev -> List.iter (fun s -> emit s ev) sinks)

let filter p s = make ~close:(fun () -> close s) (fun ev -> if p ev then emit s ev)

let collect () =
  let r = Recorder.create () in
  (make (Recorder.push r), fun () -> Recorder.to_list r)
