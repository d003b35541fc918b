(** Growth exponents for experiment tables.

    The paper's claims are asymptotic; [Oracle_core.Separation.ratio_growth]
    reports how a measured quantity grows with [n] as the slope of a
    log-log fit. *)

val loglog_slope : xs:float list -> ys:float list -> float
(** Least-squares slope of [log y] against [log x] — the empirical growth
    exponent.  Requires at least two distinct positive [x].  Raises
    [Invalid_argument] on length mismatch, empty input, non-positive
    data or coincident [x]. *)
