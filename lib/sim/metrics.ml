let check_lengths xs ys =
  if List.length xs <> List.length ys then invalid_arg "Metrics: length mismatch";
  if xs = [] then invalid_arg "Metrics: empty input"

let linear_fit ~xs ~ys =
  let n = float_of_int (List.length xs) in
  let sx = List.fold_left ( +. ) 0.0 xs in
  let sy = List.fold_left ( +. ) 0.0 ys in
  let sxx = List.fold_left (fun acc x -> acc +. (x *. x)) 0.0 xs in
  let sxy = List.fold_left2 (fun acc x y -> acc +. (x *. y)) 0.0 xs ys in
  let denom = (n *. sxx) -. (sx *. sx) in
  if Float.abs denom < 1e-12 then invalid_arg "Metrics.linear_fit: degenerate xs";
  ((n *. sxy) -. (sx *. sy)) /. denom

let loglog_slope ~xs ~ys =
  check_lengths xs ys;
  List.iter2
    (fun x y -> if x <= 0.0 || y <= 0.0 then invalid_arg "Metrics.loglog_slope: non-positive data")
    xs ys;
  linear_fit ~xs:(List.map log xs) ~ys:(List.map log ys)
