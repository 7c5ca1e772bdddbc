(* The empty OCaml executable of E19's start-up ladder: the runtime's
   own start and exit, linked statically like the checker. *)
