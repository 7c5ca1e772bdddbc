(* The domain pool behind the check server, and validation of --jobs
   (which only sizes that pool). *)

let test_pool_order () =
  let pool = Parallel.Pool.create 4 in
  let submit f = Option.get (Parallel.Pool.try_submit pool f) in
  let futures = List.init 20 (fun i -> submit (fun () -> i * i)) in
  let results = List.map Parallel.Pool.await_exn futures in
  Parallel.Pool.shutdown pool;
  Alcotest.(check (list int))
    "squares in submission order"
    (List.init 20 (fun i -> i * i))
    results

let test_pool_failure_isolated () =
  let pool = Parallel.Pool.create 2 in
  let submit f = Option.get (Parallel.Pool.try_submit pool f) in
  let fut_bad = submit (fun () -> failwith "boom") in
  let fut_ok = submit (fun () -> 42) in
  let bad = Parallel.Pool.await fut_bad in
  let ok = Parallel.Pool.await fut_ok in
  Parallel.Pool.shutdown pool;
  Alcotest.(check bool) "failure reported" true
    (match bad with
    | Error (Failure msg) -> msg = "boom"
    | _ -> false);
  Alcotest.(check bool) "other task unaffected" true (ok = Ok 42)

let test_pool_invalid () =
  Alcotest.check_raises "zero workers rejected"
    (Invalid_argument "Parallel.Pool.create: need at least one worker")
    (fun () -> ignore (Parallel.Pool.create 0));
  let pool = Parallel.Pool.create 1 in
  Parallel.Pool.shutdown pool;
  Parallel.Pool.shutdown pool (* idempotent *);
  Alcotest.check_raises "try_submit after shutdown rejected"
    (Invalid_argument "Parallel.Pool.try_submit: pool is shut down")
    (fun () -> ignore (Parallel.Pool.try_submit pool (fun () -> ())))

let test_jobs_validation () =
  let code, out = Smoke.run [ Smoke.model_path "mutex.smv"; "--jobs=-2" ] in
  Alcotest.(check int) "negative jobs exits 3" 3 code;
  Alcotest.(check bool) "negative jobs reported" true
    (Astring.String.is_infix ~affix:"--jobs" out)

let suite =
  [
    Alcotest.test_case "pool preserves submission order" `Quick
      test_pool_order;
    Alcotest.test_case "pool isolates task failures" `Quick
      test_pool_failure_isolated;
    Alcotest.test_case "pool argument validation" `Quick test_pool_invalid;
    Alcotest.test_case "--jobs validation" `Quick test_jobs_validation;
  ]
