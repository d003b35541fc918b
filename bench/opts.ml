(* The [--key=value] options of the bench drivers.

   [parse options args] hands the value of every argument that starts
   with one of the [(prefix, store)] prefixes to that option's [store]
   (the first matching prefix, in list order) and returns the other
   arguments, in order. *)
let parse options args =
  List.filter
    (fun a ->
      match List.find_opt (fun (prefix, _) -> String.starts_with ~prefix a) options with
      | Some (prefix, store) ->
        store (String.sub a (String.length prefix) (String.length a - String.length prefix));
        false
      | None -> true)
    args
