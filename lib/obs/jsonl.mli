(** JSON Lines export and import of telemetry events.

    One event per line, as a flat JSON object with the fields named in
    the metrics contract (DESIGN.md §Telemetry):

    {v
    {"seq":3,"round":1,"ev":"send","src":0,"src_port":2,"dst":5,
     "dst_port":0,"cls":"source","bits":1,"informed":true,"depth":1}
    {"seq":3,"round":2,"ev":"deliver", ... same link fields ... }
    {"seq":3,"round":2,"ev":"wake","node":5}
    {"seq":7,"round":9,"ev":"decide","node":5,"tag":"leader"}
    {"seq":0,"round":0,"ev":"advice","node":5,"bits":12}
    v}

    The encoder emits keys in a fixed order; the decoder accepts any key
    order and surplus whitespace, so traces survive [jq]-style rewriting.
    Both directions are dependency-free on purpose — the container ships
    no JSON library — and the decoder inverts the encoder exactly
    (round-trip is tested). *)

val escape : string -> string
(** The body of a JSON string literal holding [s] (no surrounding
    quotes): quote, backslash and every control character escaped.
    Shared by every hand-written JSON row in the repository. *)

val encode : Event.t -> string
(** One JSON object, no trailing newline. *)

val decode : string -> (Event.t, string) result
(** Parse one line.  [Error msg] describes the first offending token. *)

val decode_exn : string -> Event.t
(** Like {!decode}.  Raises [Failure] on malformed input. *)

val channel_sink : out_channel -> Sink.t
(** Write one line per event.  Closing the sink flushes the channel but
    does not close it (the caller owns the channel). *)

val file_sink : string -> Sink.t
(** Open (truncate) [file] and write one line per event; closing the sink
    closes the file. *)

val read_file : string -> Event.t list
(** Load a recorded trace, skipping blank lines.
    Raises [Failure] on the first malformed line (with its line number). *)
