let bits w =
  if w < 0 then invalid_arg "Binary.bits: negative";
  if w <= 1 then 1
  else
    let rec loop acc w = if w = 0 then acc else loop (acc + 1) (w lsr 1) in
    loop 0 w

let floor_log2 n =
  if n < 1 then invalid_arg "Binary.floor_log2";
  let rec loop acc n = if n = 1 then acc else loop (acc + 1) (n lsr 1) in
  loop 0 n

let ceil_log2 n =
  if n < 1 then invalid_arg "Binary.ceil_log2";
  if n = 1 then 0
  else floor_log2 (n - 1) + 1

let to_bools w =
  if w < 0 then invalid_arg "Binary.to_bools: negative";
  let k = bits w in
  List.init k (fun i -> w lsr (k - 1 - i) land 1 = 1)

(* log2 n!: exact cumulative sums for small n, Stirling series above.  The
   counting experiments evaluate this inside bisections over million-bit
   budgets, so it must be O(1). *)
let exact_limit = 4096

let exact_table =
  lazy
    (let t = Array.make (exact_limit + 1) 0.0 in
     for i = 2 to exact_limit do
       t.(i) <- t.(i - 1) +. Float.log2 (float_of_int i)
     done;
     t)

let log2e = Float.log2 (Float.exp 1.0)

let log2_factorial n =
  if n < 0 then invalid_arg "Binary.log2_factorial";
  if n <= exact_limit then (Lazy.force exact_table).(n)
  else begin
    (* ln Γ(x) for x = n+1 via the Stirling series; x > 4097 makes the
       truncation error far below float precision. *)
    let x = float_of_int n +. 1.0 in
    let ln_gamma =
      ((x -. 0.5) *. log x) -. x
      +. (0.5 *. log (2.0 *. Float.pi))
      +. (1.0 /. (12.0 *. x))
      -. (1.0 /. (360.0 *. (x ** 3.0)))
    in
    ln_gamma *. log2e
  end

let log2_choose n k =
  if k < 0 || k > n then neg_infinity
  else log2_factorial n -. log2_factorial k -. log2_factorial (n - k)
