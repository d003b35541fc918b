type t = { parent : int array; csize : int array; mutable count : int }

let create n = { parent = Array.init n (fun i -> i); csize = Array.make n 1; count = n }

let rec find t x =
  let p = t.parent.(x) in
  if p = x then x
  else begin
    let r = find t p in
    t.parent.(x) <- r;
    r
  end

let union t a b =
  let ra = find t a and rb = find t b in
  if ra = rb then false
  else begin
    let big, small = if t.csize.(ra) >= t.csize.(rb) then (ra, rb) else (rb, ra) in
    t.parent.(small) <- big;
    t.csize.(big) <- t.csize.(big) + t.csize.(small);
    t.count <- t.count - 1;
    true
  end

let components t = t.count
