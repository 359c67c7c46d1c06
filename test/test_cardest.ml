(* Tests for cardinality estimation: the exact True_card oracle (checked
   against brute-force join counting on random databases, including
   cyclic queries), the compositional estimator framework, the PG-style
   selectivity machinery, the five system emulations, and injection. *)

module QG = Query.Query_graph
module Bitset = Util.Bitset

(* --- True_card vs brute force -------------------------------------------- *)

let true_card_matches_brute_force =
  Support.qcheck_case ~count:40 ~name:"True_card = brute force (random acyclic queries)"
    QCheck.(pair small_int (int_range 2 4))
    (fun (seed, relations) ->
      let prng = Util.Prng.create seed in
      let db = Support.micro_db prng ~tables:relations ~rows:12 in
      let g = Support.micro_query prng db ~relations ~extra_edges:0 in
      let tc = Cardest.True_card.compute g in
      Array.for_all
        (fun s ->
          let expected = float_of_int (Support.brute_force_count g s) in
          Cardest.True_card.card tc s = expected)
        (QG.connected_subsets g))

let true_card_matches_brute_force_cyclic =
  Support.qcheck_case ~count:30 ~name:"True_card = brute force (random cyclic queries)"
    QCheck.(pair small_int (int_range 3 4))
    (fun (seed, relations) ->
      let prng = Util.Prng.create (seed + 1000) in
      let db = Support.micro_db prng ~tables:relations ~rows:10 in
      let g = Support.micro_query prng db ~relations ~extra_edges:3 in
      let tc = Cardest.True_card.compute g in
      Array.for_all
        (fun s ->
          let expected = float_of_int (Support.brute_force_count g s) in
          Cardest.True_card.card tc s = expected)
        (QG.connected_subsets g))

(* Shared-attribute cycles: column [a] of at least three relations is
   joined pairwise (a clique of redundant triangle edges), and a random
   spanning tree plus one random extra edge join the relations through
   their other columns [b]/[c]. A subset's classes then depend on which
   relations it holds (a chain r.b = s.b = u.c makes one class only
   while s is inside), the same subtrees recur across subsets, and the
   extra edge can put two columns of one relation into one class. Every
   join column holds NULLs, which must match nothing. *)
let shared_attribute_query prng ~relations ~rows =
  let value () =
    if Util.Prng.chance prng 0.1 then None else Some (1 + Util.Prng.int prng 3)
  in
  let rels =
    Array.init relations (fun idx ->
        let column name =
          Storage.Column.of_ints ~name (Array.init rows (fun _ -> value ()))
        in
        let table =
          Storage.Table.create ~name:(Printf.sprintf "s%d" idx)
            [| column "a"; column "b"; column "c"; column "v" |]
        in
        let preds =
          if Util.Prng.chance prng 0.3 then
            [ Query.Predicate.Cmp { col = 3; op = Query.Predicate.Le; code = 2 } ]
          else []
        in
        { QG.idx; alias = Printf.sprintf "s%d" idx; table; preds })
  in
  let edge l lc r rc =
    { QG.left = l; left_col = lc; right = r; right_col = rc; pk_side = None }
  in
  let sharing =
    Util.Prng.sample_without_replacement prng
      (3 + Util.Prng.int prng (relations - 2))
      relations
    |> Array.to_list |> List.sort compare
  in
  let clique =
    List.concat_map
      (fun i ->
        List.filter_map
          (fun j -> if j < i then Some (edge j 0 i 0) else None)
          sharing)
      sharing
  in
  let tree =
    List.init (relations - 1) (fun i ->
        edge (i + 1) (1 + Util.Prng.int prng 2) (Util.Prng.int prng (i + 1))
          (1 + Util.Prng.int prng 2))
  in
  let extra =
    let l = Util.Prng.int prng relations and r = Util.Prng.int prng relations in
    if l = r then []
    else [ edge l (1 + Util.Prng.int prng 2) r (1 + Util.Prng.int prng 2) ]
  in
  QG.create ~name:"shared" rels (clique @ tree @ extra)

let true_card_matches_brute_force_shared =
  Support.qcheck_case ~count:200
    ~name:"True_card = brute force (shared-attribute cycles)"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let prng = Util.Prng.create (seed + 2000) in
      let relations = 5 + Util.Prng.int prng 2 in
      let g = shared_attribute_query prng ~relations ~rows:5 in
      let tc = Cardest.True_card.compute g in
      Array.for_all
        (fun s ->
          let expected = float_of_int (Support.brute_force_count g s) in
          Cardest.True_card.card tc s = expected)
        (QG.connected_subsets g))

(* Every connected subset of six large JOB queries at scale 0.001 (seed
   42), digested as "<members> <float bits in hex>" lines in
   [connected_subsets] order. The constants were recorded before the
   projection and message caches existed, so they pin the cached
   computation to the from-scratch one bit for bit. *)
let truth_golden =
  [
    ("33a", 673, "48b5d1cac01990e0c2fccac0b1d262fa");
    ("28a", 585, "f456c4af353a48325b4bcfcd4abcfe21");
    ("31c", 382, "fce17a8969eeb4600cad53184e2df220");
    ("29c", 240, "42f8c1f6d2542b541023e5776eed5e35");
    ("24d", 248, "79b0a98a5a3df05952a56d5534c6c54b");
    ("30a", 262, "e1ea9ce5fb6a991ccf2a9f7cc343cb6d");
  ]

let test_true_card_golden () =
  let db = Datagen.Imdb_gen.generate ~seed:42 ~scale:0.001 () in
  List.iter
    (fun (name, count, digest) ->
      let q = Workload.Job.find name in
      let g =
        (Sqlfront.Binder.bind_sql db ~name q.Workload.Job.sql)
          .Sqlfront.Binder.graph
      in
      let tc = Cardest.True_card.compute g in
      let subsets = QG.connected_subsets g in
      let b = Buffer.create 4096 in
      Array.iter
        (fun s ->
          Printf.bprintf b "%s %Lx\n"
            (String.concat "." (List.map string_of_int (Bitset.to_list s)))
            (Int64.bits_of_float (Cardest.True_card.card tc s)))
        subsets;
      Alcotest.(check int) (name ^ " subsets") count (Array.length subsets);
      Alcotest.(check string) (name ^ " cardinality bits") digest
        (Digest.to_hex (Digest.string (Buffer.contents b))))
    truth_golden

let test_true_card_imdb_query () =
  (* A real multi-join query on the small IMDB, against brute force. *)
  let db = Lazy.force Support.imdb in
  let b =
    Sqlfront.Binder.bind_sql db ~name:"t"
      "SELECT MIN(t.title) FROM title AS t, movie_keyword AS mk, keyword AS k, \
       cast_info AS ci WHERE t.id = mk.movie_id AND mk.keyword_id = k.id AND \
       t.id = ci.movie_id AND k.keyword = 'sequel'"
  in
  let g = b.Sqlfront.Binder.graph in
  let tc = Cardest.True_card.compute g in
  Array.iter
    (fun s ->
      Alcotest.(check (Alcotest.float 0.0))
        (Format.asprintf "subset %a" Bitset.pp s)
        (float_of_int (Support.brute_force_count g s))
        (Cardest.True_card.card tc s))
    (QG.connected_subsets g)

let test_true_card_zero_result () =
  let db = Lazy.force Support.imdb in
  let b =
    Sqlfront.Binder.bind_sql db ~name:"zero"
      "SELECT MIN(t.title) FROM title AS t, movie_keyword AS mk, keyword AS k \
       WHERE t.id = mk.movie_id AND mk.keyword_id = k.id AND \
       k.keyword = 'definitely-not-a-keyword'"
  in
  let g = b.Sqlfront.Binder.graph in
  let tc = Cardest.True_card.compute g in
  Alcotest.(check (Alcotest.float 0.0)) "empty" 0.0
    (Cardest.True_card.card tc (QG.full_set g))

let test_true_card_rejects_disconnected () =
  let db = Lazy.force Support.imdb in
  let b =
    Sqlfront.Binder.bind_sql db ~name:"t"
      "SELECT MIN(t.title) FROM title AS t, movie_keyword AS mk, keyword AS k \
       WHERE t.id = mk.movie_id AND mk.keyword_id = k.id"
  in
  let tc = Cardest.True_card.compute b.Sqlfront.Binder.graph in
  (try
     ignore (Cardest.True_card.card tc (Bitset.of_list [ 0; 2 ]));
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

(* --- Estimator framework ---------------------------------------------------- *)

let toy_graph () =
  let prng = Util.Prng.create 17 in
  let db = Support.micro_db prng ~tables:3 ~rows:20 in
  Support.micro_query prng db ~relations:3 ~extra_edges:0

let test_compositional_singleton_and_clamp () =
  let g = toy_graph () in
  let est =
    Cardest.Estimator.compositional ~name:"t" ~graph:g
      ~base:(fun r -> float_of_int (r + 1) *. 0.25)
      ~edge_selectivity:(fun _ -> 0.001)
      ~rounding:Cardest.Estimator.Clamp_one ()
  in
  Alcotest.(check (Alcotest.float 1e-9)) "singleton clamped" 1.0
    (est.Cardest.Estimator.subset (Bitset.singleton 0));
  Alcotest.(check bool) "never below one" true
    (est.Cardest.Estimator.subset (QG.full_set g) >= 1.0)

let test_compositional_floor () =
  let g = toy_graph () in
  let est =
    Cardest.Estimator.compositional ~name:"t" ~graph:g
      ~base:(fun _ -> 7.9)
      ~edge_selectivity:(fun _ -> 1.0)
      ~rounding:Cardest.Estimator.Floor_one ()
  in
  Alcotest.(check (Alcotest.float 1e-9)) "floored" 7.0
    (est.Cardest.Estimator.subset (Bitset.singleton 0))

let test_compositional_independence_formula () =
  let g = toy_graph () in
  let est =
    Cardest.Estimator.compositional ~name:"t" ~graph:g
      ~base:(fun _ -> 100.0)
      ~edge_selectivity:(fun _ -> 0.01)
      ()
  in
  (* 3 relations, 2 edges: 100^3 * 0.01^2 = 100_00... = 1e6 * 1e-4 = 100. *)
  Alcotest.(check (Alcotest.float 1e-6)) "textbook product" 100.0
    (est.Cardest.Estimator.subset (QG.full_set g))

let test_backoff_raises_estimates () =
  let g = toy_graph () in
  let independent =
    Cardest.Estimator.compositional ~name:"i" ~graph:g
      ~base:(fun _ -> 100.0)
      ~edge_selectivity:(fun _ -> 0.01)
      ()
  in
  let damped =
    Cardest.Estimator.compositional ~name:"d" ~graph:g
      ~base:(fun _ -> 100.0)
      ~edge_selectivity:(fun _ -> 0.01)
      ~combine:(Cardest.Estimator.Backoff 0.5) ()
  in
  Alcotest.(check bool) "damping raises deep estimates" true
    (damped.Cardest.Estimator.subset (QG.full_set g)
    > independent.Cardest.Estimator.subset (QG.full_set g))

let estimator_memo_deterministic =
  Support.qcheck_case ~name:"estimator subset memo deterministic"
    QCheck.small_int
    (fun seed ->
      let prng = Util.Prng.create seed in
      let db = Support.micro_db prng ~tables:4 ~rows:10 in
      let g = Support.micro_query prng db ~relations:4 ~extra_edges:1 in
      let est =
        Cardest.Estimator.compositional ~name:"t" ~graph:g
          ~base:(fun r -> float_of_int ((r * 13) + 5))
          ~edge_selectivity:(fun _ -> 0.03)
          ~rounding:Cardest.Estimator.Clamp_one ()
      in
      Array.for_all
        (fun s ->
          est.Cardest.Estimator.subset s = est.Cardest.Estimator.subset s)
        (Query.Query_graph.connected_subsets g))

let test_textbook_edge_selectivity () =
  let dom ~rel ~col =
    ignore col;
    if rel = 0 then 100.0 else 500.0
  in
  let e = { QG.left = 0; left_col = 0; right = 1; right_col = 0; pk_side = None } in
  Alcotest.(check (Alcotest.float 1e-12)) "1/max" (1.0 /. 500.0)
    (Cardest.Estimator.textbook_edge_selectivity ~dom e)

(* --- Selectivity -------------------------------------------------------------- *)

let test_selectivity_mcv_equality () =
  let db = Lazy.force Support.imdb_mid in
  let t = Storage.Database.find_table db "company_name" in
  let col = Storage.Table.column_index t "country_code" in
  let column = Storage.Table.column t col in
  let stats =
    Dbstats.Column_stats.build (Util.Prng.create 3) t ~col
      ~sample_rows:(Array.init (Storage.Table.row_count t) (fun i -> i))
      ()
  in
  let us = Option.get (Storage.Column.encode column (Storage.Value.Str "[us]")) in
  let sel =
    Cardest.Selectivity.atom ~stats ~table:t ~magic:Cardest.Selectivity.pg_magic
      (Query.Predicate.Cmp { col; op = Query.Predicate.Eq; code = us })
  in
  (* True fraction of '[us]' companies is around 0.3; an MCV hit must be
     close. *)
  let truth = ref 0 in
  Storage.Column.iter_codes column (fun v -> if v = us then incr truth);
  let exact = float_of_int !truth /. float_of_int (Storage.Table.row_count t) in
  Alcotest.(check bool)
    (Printf.sprintf "mcv close: est %.3f vs exact %.3f" sel exact)
    true
    (Float.abs (sel -. exact) < 0.05)

let test_selectivity_or_formula () =
  let db = Lazy.force Support.imdb in
  let t = Storage.Database.find_table db "title" in
  let col = Storage.Table.column_index t "production_year" in
  let stats =
    Dbstats.Column_stats.build (Util.Prng.create 3) t ~col
      ~sample_rows:(Array.init (Storage.Table.row_count t) (fun i -> i))
      ()
  in
  let atom op code = Query.Predicate.Cmp { col; op; code } in
  let s1 =
    Cardest.Selectivity.atom ~stats ~table:t ~magic:Cardest.Selectivity.pg_magic
      (atom Query.Predicate.Gt 2000)
  in
  let s2 =
    Cardest.Selectivity.atom ~stats ~table:t ~magic:Cardest.Selectivity.pg_magic
      (atom Query.Predicate.Lt 1950)
  in
  let s_or =
    Cardest.Selectivity.atom ~stats ~table:t ~magic:Cardest.Selectivity.pg_magic
      (Query.Predicate.Or [ atom Query.Predicate.Gt 2000; atom Query.Predicate.Lt 1950 ])
  in
  Alcotest.(check (Alcotest.float 1e-9)) "s1+s2-s1s2" (s1 +. s2 -. (s1 *. s2)) s_or

let test_selectivity_bounds =
  Support.qcheck_case ~name:"selectivity always within [0,1]"
    QCheck.(pair (int_range 1880 2015) small_int)
    (fun (year, seed) ->
      ignore seed;
      let db = Lazy.force Support.imdb in
      let t = Storage.Database.find_table db "title" in
      let col = Storage.Table.column_index t "production_year" in
      let stats =
        Dbstats.Column_stats.build (Util.Prng.create 3) t ~col
          ~sample_rows:(Array.init (Storage.Table.row_count t) (fun i -> i))
          ()
      in
      List.for_all
        (fun op ->
          let s =
            Cardest.Selectivity.atom ~stats ~table:t
              ~magic:Cardest.Selectivity.pg_magic
              (Query.Predicate.Cmp { col; op; code = year })
          in
          s >= 0.0 && s <= 1.0)
        [ Query.Predicate.Eq; Query.Predicate.Ne; Query.Predicate.Lt;
          Query.Predicate.Ge ])

(* --- Systems --------------------------------------------------------------------- *)

let job_context () =
  let db = Lazy.force Support.imdb_mid in
  let analyze = Dbstats.Analyze.create db in
  let q = Workload.Job.find "1a" in
  let b = Sqlfront.Binder.bind_sql db ~name:"1a" q.Workload.Job.sql in
  (db, analyze, b.Sqlfront.Binder.graph)

let test_all_systems_positive_finite () =
  let db, analyze, graph = job_context () in
  let ctx = { Cardest.Systems.db; graph } in
  List.iter
    (fun name ->
      let est = Cardest.Systems.by_name analyze ctx name in
      Array.iter
        (fun s ->
          let v = est.Cardest.Estimator.subset s in
          if not (Float.is_finite v) || v < 0.0 then
            Alcotest.failf "%s produced %f" name v)
        (QG.connected_subsets graph))
    Cardest.Systems.names

let test_dbms_b_estimates_integral () =
  let db, _, graph = job_context () in
  let coarse = Cardest.Systems.coarse_analyze db in
  let est = Cardest.Systems.dbms_b coarse { Cardest.Systems.db; graph } in
  Array.iter
    (fun s ->
      let v = est.Cardest.Estimator.subset s in
      Alcotest.(check bool) "integer >= 1" true (Float.is_integer v && v >= 1.0))
    (QG.connected_subsets graph)

let test_postgres_true_distinct_variant_differs () =
  (* Needs (a) a small sample, so sampled distinct counts underestimate,
     and (b) an FK/FK join edge — on FK->PK edges the formula's
     max(dom) always picks the PK side, whose distinct count is exact
     either way. Query 2a has the transitive mk/mc edge. *)
  let db = Lazy.force Support.imdb_mid in
  let q = Workload.Job.find "2a" in
  let b = Sqlfront.Binder.bind_sql db ~name:"2a" q.Workload.Job.sql in
  let graph = b.Sqlfront.Binder.graph in
  let analyze = Dbstats.Analyze.create ~sample_size:300 db in
  let ctx = { Cardest.Systems.db; graph } in
  let default = Cardest.Systems.postgres analyze ctx in
  let exact = Cardest.Systems.postgres ~true_distinct:true analyze ctx in
  (* Some subexpression must be estimated differently (the full set may
     clamp to 1 under both variants). *)
  Alcotest.(check bool) "estimates differ somewhere" true
    (Array.exists
       (fun s ->
         default.Cardest.Estimator.subset s <> exact.Cardest.Estimator.subset s)
       (QG.connected_subsets graph))

let test_sample_estimators_good_base () =
  (* HyPer/DBMS A evaluate the whole conjunction on a sample: on the
     mid-size database their base estimates must beat DBMS C's. *)
  let db = Lazy.force Support.imdb_mid in
  let analyze = Dbstats.Analyze.create db in
  let q = Workload.Job.find "1b" in
  let b = Sqlfront.Binder.bind_sql db ~name:"1b" q.Workload.Job.sql in
  let graph = b.Sqlfront.Binder.graph in
  let ctx = { Cardest.Systems.db; graph } in
  let tc = Cardest.True_card.compute graph in
  let err name est =
    let total = ref 0.0 in
    Array.iteri
      (fun r _ ->
        let truth = Float.max 1.0 (Cardest.True_card.base tc r) in
        let estimate = Float.max 1.0 (est.Cardest.Estimator.base r) in
        total := !total +. Util.Stat.q_error ~estimate ~truth)
      (QG.relations graph);
    ignore name;
    !total
  in
  let a = err "A" (Cardest.Systems.dbms_a analyze ctx) in
  let c = err "C" (Cardest.Systems.dbms_c analyze ctx) in
  Alcotest.(check bool) (Printf.sprintf "A (%.1f) <= C (%.1f)" a c) true (a <= c)

(* --- Injection ---------------------------------------------------------------------- *)

let test_injection () =
  let fallback =
    Cardest.Estimator.of_function ~name:"fb" ~base:(fun _ -> 50.0) (fun _ -> 500.0)
  in
  let injected =
    Cardest.Injection.create ~name:"inj" ~fallback
      [ (Bitset.singleton 0, 7.0); (Bitset.of_list [ 0; 1 ], 77.0) ]
  in
  Alcotest.(check (Alcotest.float 0.0)) "override base" 7.0
    (injected.Cardest.Estimator.base 0);
  Alcotest.(check (Alcotest.float 0.0)) "fallback base" 50.0
    (injected.Cardest.Estimator.base 1);
  Alcotest.(check (Alcotest.float 0.0)) "override subset" 77.0
    (injected.Cardest.Estimator.subset (Bitset.of_list [ 0; 1 ]));
  Alcotest.(check (Alcotest.float 0.0)) "fallback subset" 500.0
    (injected.Cardest.Estimator.subset (Bitset.of_list [ 1; 2 ]))

let test_injection_of_estimator () =
  let g = toy_graph () in
  let source =
    Cardest.Estimator.of_function ~name:"src" ~base:(fun _ -> 3.0) (fun _ -> 9.0)
  in
  let fallback =
    Cardest.Estimator.of_function ~name:"fb" ~base:(fun _ -> 1.0) (fun _ -> 1.0)
  in
  let injected =
    Cardest.Injection.of_estimator ~name:"mix" ~fallback ~source
      ~subsets:[ QG.full_set g ]
  in
  Alcotest.(check (Alcotest.float 0.0)) "sourced" 9.0
    (injected.Cardest.Estimator.subset (QG.full_set g));
  Alcotest.(check (Alcotest.float 0.0)) "fallback" 1.0
    (injected.Cardest.Estimator.subset (Bitset.singleton 1))

let suite =
  [
    true_card_matches_brute_force;
    true_card_matches_brute_force_cyclic;
    true_card_matches_brute_force_shared;
    Alcotest.test_case "true card golden bits (6 JOB queries)" `Quick
      test_true_card_golden;
    Alcotest.test_case "true card on IMDB query" `Quick test_true_card_imdb_query;
    Alcotest.test_case "true card zero result" `Quick test_true_card_zero_result;
    Alcotest.test_case "true card disconnected" `Quick test_true_card_rejects_disconnected;
    Alcotest.test_case "clamp to one" `Quick test_compositional_singleton_and_clamp;
    Alcotest.test_case "floor rounding" `Quick test_compositional_floor;
    Alcotest.test_case "independence formula" `Quick test_compositional_independence_formula;
    Alcotest.test_case "backoff damping" `Quick test_backoff_raises_estimates;
    estimator_memo_deterministic;
    Alcotest.test_case "textbook edge selectivity" `Quick test_textbook_edge_selectivity;
    Alcotest.test_case "mcv equality selectivity" `Quick test_selectivity_mcv_equality;
    Alcotest.test_case "OR selectivity formula" `Quick test_selectivity_or_formula;
    test_selectivity_bounds;
    Alcotest.test_case "all systems finite" `Quick test_all_systems_positive_finite;
    Alcotest.test_case "DBMS B integral" `Quick test_dbms_b_estimates_integral;
    Alcotest.test_case "true-distinct variant" `Quick
      test_postgres_true_distinct_variant_differs;
    Alcotest.test_case "sample estimators beat magic" `Quick
      test_sample_estimators_good_base;
    Alcotest.test_case "injection" `Quick test_injection;
    Alcotest.test_case "injection of estimator" `Quick test_injection_of_estimator;
  ]
