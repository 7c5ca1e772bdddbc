(* Tests for conjunctively partitioned transition relations with early
   quantification: images, reachability and full CTL checking must be
   unchanged by partitioning. *)

let prop name ?(count = 100) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

(* The counter builds its relation as one conjunct per bit — the ideal
   partitioning candidate. *)
let counter_pair bits =
  let mono = Models.counter bits in
  (* Rebuild through the builder to get the partitioned variant of the
     same relation; Models.counter uses add_trans per bit, so
     re-deriving the clusters via a fresh build is the easiest route:
     partition the monolithic relation ourselves per output bit. *)
  let bman = mono.Kripke.man in
  let clusters =
    List.init bits (fun i ->
        (* project the relation onto the constraint for next-bit i *)
        let others =
          List.filter (fun j -> j <> i) (List.init bits Fun.id)
          |> List.map (fun j -> (2 * j) + 1)
        in
        Bdd.exists bman (Bdd.cube bman others) mono.Kripke.trans)
  in
  (mono, Kripke.with_partition mono clusters)

let test_images_agree () =
  let mono, part = counter_pair 4 in
  Alcotest.(check bool) "partitioned flag" true (Kripke.partitioned part);
  Alcotest.(check bool) "mono flag" false (Kripke.partitioned mono);
  let some_set = Ctl.Check.sat mono (Ctl.atom "b1") in
  Alcotest.(check bool) "pre agrees" true
    (Bdd.equal (Kripke.pre mono some_set) (Kripke.pre part some_set));
  Alcotest.(check bool) "post agrees" true
    (Bdd.equal (Kripke.post mono some_set) (Kripke.post part some_set));
  Alcotest.(check bool) "reachable agrees" true
    (Bdd.equal (Kripke.reachable mono) (Kripke.reachable part))

let test_bad_partition_rejected () =
  let mono = Models.counter 3 in
  Alcotest.(check bool) "bad clusters rejected" true
    (match Kripke.with_partition mono [ Bdd.one mono.Kripke.man ] with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* examples/models/arbiter.smv built straight through the builder, so
   it keeps its adversarial declaration order (every request bit, then
   every acknowledge bit, then the token) instead of the compiler's
   proximity order: the monolithic relation must remember all the
   request bits before it reaches the first acknowledge bit. *)
let declared_arbiter users =
  let b = Kripke.Builder.create () in
  let man = Kripke.Builder.man b in
  let bools prefix =
    Array.init users (fun i ->
        Kripke.Builder.bool_var b (Printf.sprintf "%s%d" prefix i))
  in
  let req = bools "req" and ack = bools "ack" in
  let t i = Kripke.S (Printf.sprintf "t%d" i) in
  let token =
    Kripke.Builder.enum_var b "token"
      (List.init users (fun i -> Printf.sprintf "t%d" i))
  in
  let v = Kripke.Builder.v b and v' = Kripke.Builder.v' b in
  Kripke.Builder.add_init b
    (Bdd.conj man
       (Kripke.Builder.is b token (t 0)
       :: List.map (fun x -> Bdd.not_ man (v x))
            (Array.to_list req @ Array.to_list ack)));
  Kripke.Builder.add_trans b
    (Bdd.disj man
       (List.init users (fun i ->
            Bdd.and_ man (Kripke.Builder.is b token (t i))
              (Kripke.Builder.is' b token (t ((i + 1) mod users))))));
  for i = 0 to users - 1 do
    (* next(ack_i) := req_i & token = t_i *)
    Kripke.Builder.add_trans b
      (Bdd.iff man (v' ack.(i))
         (Bdd.and_ man (v req.(i)) (Kripke.Builder.is b token (t i))));
    (* a pending request stays high until it is acknowledged *)
    Kripke.Builder.add_trans b
      (Bdd.disj man [ v ack.(i); Bdd.not_ man (v req.(i)); v' req.(i) ])
  done;
  Kripke.Builder.label_all_bools b;
  (Kripke.Builder.build b, Kripke.Builder.clusters b)

(* The compiler's image-method rule: the adversarially ordered arbiter
   (relation hundreds of times its clusters) builds partitioned; the
   compiled arbiter (proximity order), and models whose relation stays
   near its clusters' size, build monolithic.  Either way the other
   representation, built by hand, computes the same images. *)
let test_smv_partition_rule () =
  let load name =
    let c = Smv.load_file (Filename.concat "../examples/models" name) in
    (c.Smv.Compile.model, c.Smv.Compile.clusters)
  in
  let images m =
    let post1 = Kripke.post m m.Kripke.init in
    (post1, Kripke.post m post1, Kripke.pre m post1)
  in
  List.iter
    (fun (label, (m, clusters), expect) ->
      Alcotest.(check bool) (label ^ " partitioned") expect
        (Kripke.partitioned m);
      let other =
        if expect then
          Kripke.make ~man:m.Kripke.man ~vars:(Array.to_list m.Kripke.vars)
            ~nbits:m.Kripke.nbits ~space:m.Kripke.space ~init:m.Kripke.init
            ~trans:m.Kripke.trans ~fairness:m.Kripke.fairness
            ~labels:m.Kripke.labels ()
        else Kripke.with_partition m clusters
      in
      Alcotest.(check bool) (label ^ " other representation") (not expect)
        (Kripke.partitioned other);
      let a1, a2, a3 = images m and b1, b2, b3 = images other in
      Alcotest.(check bool) (label ^ " images agree") true
        (Bdd.equal a1 b1 && Bdd.equal a2 b2 && Bdd.equal a3 b3))
    [
      ("declared arbiter", declared_arbiter 8, true);
      ("arbiter", load "arbiter.smv", false);
      ("mutex", load "mutex.smv", false);
      ("counter12", load "counter12.smv", false);
    ]

let prop_partitioned_ctl_agrees =
  (* On random models (single-cluster partition through the builder's
     case list) and the SMV mutex, verify whole satisfaction sets. *)
  prop "partitioned CTL satisfaction sets agree" ~count:150
    (QCheck2.Gen.pair (Models.random_model_gen ~nfair:2 ()) Models.formula_gen)
    (fun (rm, f) ->
      let mono = rm.Models.sym in
      (* the bridge builds via trans cases: one disjunctive cluster *)
      let clusters = [ mono.Kripke.trans ] in
      (* with_partition requires clusters /\ space /\ space' = trans;
         trans already includes the space conjuncts. *)
      let part = Kripke.with_partition mono clusters in
      Bdd.equal (Ctl.Fair.sat mono f) (Ctl.Fair.sat part f))

let prop_counter_witnesses_survive_partitioning =
  prop "witnesses on partitioned models validate" ~count:30
    (QCheck2.Gen.int_range 2 4)
    (fun bits ->
      let _, part = counter_pair bits in
      let all_set =
        Bdd.conj part.Kripke.man
          (List.init bits (fun i ->
               Ctl.Check.sat part (Ctl.atom (Printf.sprintf "b%d" i))))
      in
      let eu = Ctl.Check.eu part part.Kripke.space all_set in
      List.for_all
        (fun st ->
          let tr =
            Counterex.Witness.eu part ~f:part.Kripke.space ~g:all_set
              ~start:st
          in
          Counterex.Validate.eu_witness part ~f:part.Kripke.space ~g:all_set
            tr
          = Ok ())
        (Kripke.states_in part eu))

let suite =
  [
    Alcotest.test_case "images agree" `Quick test_images_agree;
    Alcotest.test_case "bad partition rejected" `Quick test_bad_partition_rejected;
    Alcotest.test_case "SMV partitioned end to end" `Quick
      test_smv_partition_rule;
    prop_partitioned_ctl_agrees;
    prop_counter_witnesses_survive_partitioning;
  ]
