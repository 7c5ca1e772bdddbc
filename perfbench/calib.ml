(* The benchmark's host-speed reference (perfbench/run.py).

     calib.exe N

   Builds the n-queens constraint over N*N variables with a small,
   self-contained hash-consed BDD package (tuple-keyed Hashtbl unique
   table and ite memo, int-array node columns) and prints the number of
   nodes it made.  It links none of the repository's libraries, so no
   change to them moves its running time: only the host's speed does.
   run.py runs it between checks and expresses every time metric in
   seconds at the host speed where one run of it takes a fixed nominal
   time. *)

let queens n =
  let cap = ref 1024 in
  let var = ref (Array.make !cap max_int) in
  let lo = ref (Array.make !cap 0) and hi = ref (Array.make !cap 0) in
  let count = ref 2 in
  let unique = Hashtbl.create 65536 in
  let mk v l h =
    if l = h then l
    else
      match Hashtbl.find_opt unique (v, l, h) with
      | Some u -> u
      | None ->
        if !count = !cap then begin
          let grow a d =
            let b = Array.make (2 * !cap) d in
            Array.blit a 0 b 0 !cap;
            b
          in
          var := grow !var max_int;
          lo := grow !lo 0;
          hi := grow !hi 0;
          cap := 2 * !cap
        end;
        let u = !count in
        incr count;
        !var.(u) <- v;
        !lo.(u) <- l;
        !hi.(u) <- h;
        Hashtbl.add unique (v, l, h) u;
        u
  in
  let memo = Hashtbl.create 65536 in
  let rec ite f g h =
    if f = 1 then g
    else if f = 0 then h
    else if g = h then g
    else if g = 1 && h = 0 then f
    else
      match Hashtbl.find_opt memo (f, g, h) with
      | Some r -> r
      | None ->
        let v = min !var.(f) (min !var.(g) !var.(h)) in
        let cof x b = if !var.(x) <> v then x else if b then !hi.(x) else !lo.(x) in
        let r =
          mk v
            (ite (cof f false) (cof g false) (cof h false))
            (ite (cof f true) (cof g true) (cof h true))
        in
        Hashtbl.add memo (f, g, h) r;
        r
  in
  let band a b = ite a b 0 and bor a b = ite a 1 b and bnot a = ite a 0 1 in
  let x i j = mk ((i * n) + j) 0 1 in
  let attacks i j k l =
    (k, l) <> (i, j) && (k = i || l = j || k - l = i - j || k + l = i + j)
  in
  let acc = ref 1 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let free = ref 1 in
      for k = 0 to n - 1 do
        for l = 0 to n - 1 do
          if attacks i j k l then free := band !free (bnot (x k l))
        done
      done;
      acc := band !acc (bor (bnot (x i j)) !free)
    done;
    let row = ref 0 in
    for j = 0 to n - 1 do
      row := bor !row (x i j)
    done;
    acc := band !acc !row
  done;
  !count

let () = Printf.printf "%d\n" (queens (int_of_string Sys.argv.(1)))
