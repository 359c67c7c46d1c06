(* Tests for the executor: the join hash table, result correctness across
   different plans for the same query, work accounting, timeouts and
   configuration gating. *)

module Bitset = Util.Bitset
module QG = Query.Query_graph

(* --- Join_table ------------------------------------------------------------ *)

(* The closure form of a chain walk, kept as the oracle for
   [Exec.Kernel.hash_probe]: visit the payload of every entry in the
   hash's chain whose full hash matches; return 1 + chain/4 work. *)
let probe_oracle jt ~hash ~f =
  let v = Exec.Join_table.view jt in
  let chain = ref 0 in
  let i = ref v.Exec.Join_table.buckets.(hash land v.Exec.Join_table.mask) in
  while !i >= 0 do
    incr chain;
    if v.Exec.Join_table.hashes.(!i) = hash then f v.Exec.Join_table.payloads.(!i);
    i := v.Exec.Join_table.next.(!i)
  done;
  1 + (!chain / 4)

let test_join_table_basics () =
  let jt = Exec.Join_table.create ~estimated_rows:100.0 ~resizable:false () in
  let h1 = Exec.Join_table.mix 42 and h2 = Exec.Join_table.mix 43 in
  ignore (Exec.Join_table.insert jt ~hash:h1 ~payload:1);
  ignore (Exec.Join_table.insert jt ~hash:h1 ~payload:2);
  ignore (Exec.Join_table.insert jt ~hash:h2 ~payload:3);
  let found = ref [] in
  ignore (probe_oracle jt ~hash:h1 ~f:(fun p -> found := p :: !found));
  Alcotest.(check (list int)) "both payloads" [ 1; 2 ] (List.sort compare !found);
  Alcotest.(check int) "entries" 3 (Exec.Join_table.entry_count jt)

let test_join_table_undersized_chains () =
  (* A fixed-size table sized for 1 row (floored at 1024 buckets, like
     PostgreSQL) forced to hold 64k entries: probes walk long chains,
     which the work accounting must reflect. *)
  let jt = Exec.Join_table.create ~estimated_rows:1.0 ~resizable:false () in
  for i = 0 to 65535 do
    ignore (Exec.Join_table.insert jt ~hash:(Exec.Join_table.mix i) ~payload:i)
  done;
  Alcotest.(check int) "floored bucket array" 1024 (Exec.Join_table.bucket_count jt);
  (* 64k entries over 1024 buckets: ~64-entry chains, charged at a
     quarter tuple each. *)
  let work = probe_oracle jt ~hash:(Exec.Join_table.mix 7) ~f:(fun _ -> ()) in
  Alcotest.(check bool)
    (Printf.sprintf "long chain (%d)" work)
    true (work > 10)

let test_join_table_resizing () =
  let jt = Exec.Join_table.create ~estimated_rows:1.0 ~resizable:true () in
  for i = 0 to 65535 do
    ignore (Exec.Join_table.insert jt ~hash:(Exec.Join_table.mix i) ~payload:i)
  done;
  Alcotest.(check bool) "grew" true (Exec.Join_table.bucket_count jt >= 65536);
  let work = probe_oracle jt ~hash:(Exec.Join_table.mix 7) ~f:(fun _ -> ()) in
  Alcotest.(check bool) "short chain" true (work < 10)

let join_table_finds_all =
  Support.qcheck_case ~name:"join table probe finds exactly inserted hashes"
    QCheck.(small_int)
    (fun seed ->
      let prng = Util.Prng.create seed in
      let jt =
        Exec.Join_table.create ~estimated_rows:64.0
          ~resizable:(Util.Prng.bool prng) ()
      in
      let keys = Array.init 200 (fun _ -> Util.Prng.int prng 50) in
      Array.iteri
        (fun payload k ->
          ignore (Exec.Join_table.insert jt ~hash:(Exec.Join_table.mix k) ~payload))
        keys;
      List.for_all
        (fun probe ->
          let found = ref 0 in
          ignore
            (probe_oracle jt ~hash:(Exec.Join_table.mix probe)
               ~f:(fun p -> if keys.(p) = probe then incr found));
          let expected = Array.fold_left (fun a k -> if k = probe then a + 1 else a) 0 keys in
          !found = expected)
        [ 0; 7; 49 ])

let null = Storage.Value.null_code

let kbatch width rows =
  {
    Exec.Kernel.rels = [||];
    slots = [||];
    width;
    data = Array.concat (Array.to_list rows);
    nrows = Array.length rows;
  }

let kgrow (b : Exec.Kernel.batch) extra =
  let needed = (b.Exec.Kernel.nrows + extra) * b.Exec.Kernel.width in
  if needed > Array.length b.Exec.Kernel.data then begin
    let bigger = Array.make (2 * needed) 0 in
    Array.blit b.Exec.Kernel.data 0 bigger 0 (Array.length b.Exec.Kernel.data);
    b.Exec.Kernel.data <- bigger
  end

(* The executor's hash-probe kernel against the closure oracle, over
   random fixed and resizable tables with composite keys, NULLs, hash
   chains of every length (a 16-bucket floor under random estimates),
   and outer ranges split the way morsels split them: it must emit
   exactly the oracle's key-equal payloads, in chain order, and charge
   exactly 1 + chain/4 per probed row, 1 per NULL key and 2 per emitted
   row (chain charges only when [charge]). *)
let kernel_matches_oracle =
  Support.qcheck_case ~count:100
    ~name:"hash-probe kernel = closure oracle (payload order and work)"
    QCheck.(pair small_int bool)
    (fun (seed, charge) ->
      let prng = Util.Prng.create seed in
      let keyspace = 1 + Util.Prng.int prng 30 in
      let code () =
        if Util.Prng.int prng 12 = 0 then null else Util.Prng.int prng keyspace
      in
      (* Rows are [| key1; key2; tag |]; both key columns join. *)
      let rows n = Array.init n (fun t -> [| code (); Util.Prng.int prng 3; t |]) in
      let outer = kbatch 3 (rows (Util.Prng.int prng 300)) in
      let inner = kbatch 3 (rows (Util.Prng.int prng 300)) in
      let slots = [| 0; 1 |] and readers = [| (fun v -> v); (fun v -> v) |] in
      let jt =
        Exec.Join_table.create ~bucket_floor:16
          ~estimated_rows:(float_of_int (1 + Util.Prng.int prng 400))
          ~actual_rows:inner.Exec.Kernel.nrows
          ~resizable:(Util.Prng.bool prng) ()
      in
      for j = 0 to inner.Exec.Kernel.nrows - 1 do
        let h = Exec.Kernel.tuple_key inner slots readers j in
        if h <> Exec.Kernel.null_key then Exec.Join_table.append jt ~hash:h ~payload:j
      done;
      ignore (Exec.Join_table.seal jt);
      let n = outer.Exec.Kernel.nrows in
      let row (b : Exec.Kernel.batch) i = Array.sub b.Exec.Kernel.data (i * 3) 3 in
      (* Oracle: expected output rows and work. *)
      let expected = ref [] and want_work = ref 0 in
      for i = 0 to n - 1 do
        let o = row outer i in
        let h = Exec.Kernel.tuple_key outer slots readers i in
        if h = Exec.Kernel.null_key then (if charge then incr want_work)
        else begin
          let w =
            probe_oracle jt ~hash:h ~f:(fun j ->
                let r = row inner j in
                if o.(0) = r.(0) && o.(1) = r.(1) then begin
                  expected := Array.append o r :: !expected;
                  want_work := !want_work + 2
                end)
          in
          if charge then want_work := !want_work + w
        end
      done;
      let probe =
        {
          Exec.Kernel.table = Exec.Join_table.view jt;
          outer;
          oslots = slots;
          oreaders = readers;
          inner;
          islots = slots;
          ireaders = readers;
          charge;
        }
      in
      let sink = kbatch 6 [||] in
      let mid = if n = 0 then 0 else Util.Prng.int prng (n + 1) in
      let run lo hi =
        Exec.Kernel.hash_probe probe ~limit:max_int ~wbase:0 ~rcap:max_int ~sink
          ~grow:kgrow lo hi
      in
      let w1 = run 0 mid in
      let got_work = w1 + run mid n in
      let got = List.init sink.Exec.Kernel.nrows (fun r -> Array.sub sink.Exec.Kernel.data (r * 6) 6) in
      got = List.rev !expected && got_work = !want_work)

(* --- Executor ------------------------------------------------------------------ *)

let micro ?(relations = 3) seed =
  let prng = Util.Prng.create seed in
  let db = Support.micro_db prng ~tables:relations ~rows:25 in
  let g = Support.micro_query prng db ~relations ~extra_edges:0 in
  (db, g)

let run ?(config = Exec.Engine_config.robust) db g plan =
  Exec.Executor.run ~db ~graph:g ~config ~size_est:(fun _ -> 64.0) plan

let all_plans_agree =
  Support.qcheck_case ~count:25 ~name:"hash/INL/NL plans return identical row counts"
    QCheck.(pair small_int (int_range 2 4))
    (fun (seed, relations) ->
      let db, g = micro ~relations seed in
      Storage.Database.set_index_config db Storage.Database.Pk_fk;
      let expected = Support.brute_force_count g (QG.full_set g) in
      let tc = Cardest.True_card.compute g in
      let plans =
        [
          fst (Planner.Dp.optimize
                 (Planner.Search.create ~model:Cost.Cost_model.cmm ~graph:g ~db
                    ~card:(Cardest.True_card.card tc) ()));
          fst (Planner.Dp.optimize
                 (Planner.Search.create ~allow_nl:true
                    ~model:Cost.Cost_model.postgres ~graph:g ~db
                    ~card:(fun _ -> 1.0)
                    ()));
          fst (Planner.Quickpick.sample
                 (Planner.Search.create ~model:Cost.Cost_model.cmm ~graph:g ~db
                    ~card:(Cardest.True_card.card tc) ())
                 (Util.Prng.create seed));
          fst (Planner.Dp.optimize
                 (Planner.Search.create ~shape:Planner.Search.Only_left_deep
                    ~model:Cost.Cost_model.cmm ~graph:g ~db
                    ~card:(Cardest.True_card.card tc) ()));
        ]
      in
      List.for_all
        (fun plan ->
          let result = run ~config:Exec.Engine_config.default_9_4 db g plan in
          result.Exec.Executor.rows = expected)
        plans)

let merge_join_agrees_with_hash =
  Support.qcheck_case ~count:25 ~name:"sort-merge join = hash join results"
    QCheck.(pair small_int (int_range 2 4))
    (fun (seed, relations) ->
      let db, g = micro ~relations seed in
      Storage.Database.set_index_config db Storage.Database.No_indexes;
      let expected = Support.brute_force_count g (QG.full_set g) in
      (* Force sort-merge everywhere by disabling hash joins. *)
      let tc = Cardest.True_card.compute g in
      let s =
        Planner.Search.create ~allow_hash:false ~model:Cost.Cost_model.cmm
          ~graph:g ~db ~card:(Cardest.True_card.card tc) ()
      in
      let plan, _ = Planner.Dp.optimize s in
      let all_merge =
        Plan.fold
          (fun acc (n : Plan.t) ->
            acc
            && match n.Plan.op with
               | Plan.Join { algo; _ } -> algo = Plan.Merge_join
               | Plan.Scan _ -> true)
          true plan
      in
      let result = run db g plan in
      all_merge && result.Exec.Executor.rows = expected)

let test_merge_join_costs_more_than_hash () =
  (* The paper's work_mem observation: in memory, hashing beats
     sort-merge. Same join, both algorithms. *)
  let db = Lazy.force Support.imdb_mid in
  Storage.Database.set_index_config db Storage.Database.No_indexes;
  let b =
    Sqlfront.Binder.bind_sql db ~name:"m"
      "SELECT MIN(t.title) FROM title AS t, cast_info AS ci WHERE \
       t.id = ci.movie_id"
  in
  let g = b.Sqlfront.Binder.graph in
  let e = List.hd (QG.edges g) in
  let outer = Plan.scan e.QG.left and inner = Plan.scan e.QG.right in
  let work algo =
    (run db g (Plan.join algo ~outer ~inner)).Exec.Executor.work
  in
  Alcotest.(check bool) "merge > hash" true
    (work Plan.Merge_join > work Plan.Hash_join)

let test_executor_rows_match_truth () =
  let db = Lazy.force Support.imdb in
  Storage.Database.set_index_config db Storage.Database.Pk_only;
  let b =
    Sqlfront.Binder.bind_sql db ~name:"x"
      "SELECT MIN(t.title) FROM title AS t, cast_info AS ci, name AS n WHERE \
       t.id = ci.movie_id AND ci.person_id = n.id AND n.gender = 'f' AND \
       t.production_year > 2000"
  in
  let g = b.Sqlfront.Binder.graph in
  let tc = Cardest.True_card.compute g in
  let s =
    Planner.Search.create ~model:Cost.Cost_model.cmm ~graph:g ~db
      ~card:(Cardest.True_card.card tc) ()
  in
  let plan, _ = Planner.Dp.optimize s in
  let result = run db g plan in
  Alcotest.(check int) "rows = true card"
    (int_of_float (Cardest.True_card.card tc (QG.full_set g)))
    result.Exec.Executor.rows;
  Alcotest.(check bool) "work positive" true (result.Exec.Executor.work > 0);
  Alcotest.(check bool) "no timeout" true (not result.Exec.Executor.timed_out)

let test_executor_mins () =
  let db = Lazy.force Support.imdb in
  Storage.Database.set_index_config db Storage.Database.Pk_only;
  let b =
    Sqlfront.Binder.bind_sql db ~name:"x"
      "SELECT MIN(t.production_year) FROM title AS t, movie_keyword AS mk \
       WHERE t.id = mk.movie_id"
  in
  let g = b.Sqlfront.Binder.graph in
  let tc = Cardest.True_card.compute g in
  let s =
    Planner.Search.create ~model:Cost.Cost_model.cmm ~graph:g ~db
      ~card:(Cardest.True_card.card tc) ()
  in
  let plan, _ = Planner.Dp.optimize s in
  let result =
    Exec.Executor.run ~db ~graph:g ~config:Exec.Engine_config.robust
      ~size_est:(Cardest.True_card.card tc)
      ~projections:b.Sqlfront.Binder.projections plan
  in
  (* Compute MIN(production_year) over movies with keywords manually. *)
  let t = Storage.Database.find_table db "title" in
  let mk = Storage.Database.find_table db "movie_keyword" in
  let year = Storage.Column.to_codes (Storage.Table.find_column t "production_year") in
  let movie = Storage.Column.to_codes (Storage.Table.find_column mk "movie_id") in
  let best = ref max_int in
  Array.iter
    (fun m ->
      let y = year.(m - 1) in
      if y <> Storage.Value.null_code && y < !best then best := y)
    movie;
  match result.Exec.Executor.mins with
  | [ Storage.Value.Int y ] -> Alcotest.(check int) "min year" !best y
  | other ->
      Alcotest.failf "unexpected mins: %s"
        (String.concat "," (List.map Storage.Value.to_string other))

let test_executor_timeout () =
  let db, g = micro ~relations:3 5 in
  Storage.Database.set_index_config db Storage.Database.No_indexes;
  let tc = Cardest.True_card.compute g in
  let s =
    Planner.Search.create ~model:Cost.Cost_model.cmm ~graph:g ~db
      ~card:(Cardest.True_card.card tc) ()
  in
  let plan, _ = Planner.Dp.optimize s in
  let config = { Exec.Engine_config.robust with Exec.Engine_config.work_limit = 10 } in
  let result = run ~config db g plan in
  Alcotest.(check bool) "timed out" true result.Exec.Executor.timed_out;
  Alcotest.(check int) "work = limit" 10 result.Exec.Executor.work

let test_nl_disabled_raises () =
  let db, g = micro ~relations:2 9 in
  Storage.Database.set_index_config db Storage.Database.No_indexes;
  let e = List.hd (QG.edges g) in
  let plan =
    Plan.join Plan.Nl_join ~outer:(Plan.scan e.QG.left) ~inner:(Plan.scan e.QG.right)
  in
  (try
     ignore (run ~config:Exec.Engine_config.no_nl db g plan);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  (* Allowed under the stock engine. *)
  ignore (run ~config:Exec.Engine_config.default_9_4 db g plan)

let test_inl_without_index_raises () =
  let db, g = micro ~relations:2 10 in
  Storage.Database.set_index_config db Storage.Database.No_indexes;
  let e = List.hd (QG.edges g) in
  let plan =
    Plan.join Plan.Index_nl_join ~outer:(Plan.scan e.QG.left)
      ~inner:(Plan.scan e.QG.right)
  in
  try
    ignore (run db g plan);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_nl_charges_quadratic_work () =
  let db, g = micro ~relations:2 12 in
  Storage.Database.set_index_config db Storage.Database.No_indexes;
  let e = List.hd (QG.edges g) in
  let outer = Plan.scan e.QG.left and inner = Plan.scan e.QG.right in
  let nl = Plan.join Plan.Nl_join ~outer ~inner in
  let hj = Plan.join Plan.Hash_join ~outer ~inner in
  let run_w plan = (run ~config:Exec.Engine_config.default_9_4 db g plan).Exec.Executor.work in
  Alcotest.(check bool) "NL costs more work than HJ" true (run_w nl > run_w hj)

let test_undersized_hash_table_penalty () =
  (* The 9.4 pathology: a 200k-row build side crammed into the
     1024-bucket floor (estimate says 1 row) makes every probe walk a
     ~200-entry chain; the resizing engine pays rehashing instead. *)
  let db = Storage.Database.create () in
  let some_init n f = Array.init n (fun i -> Some (f i)) in
  Storage.Database.add_table db
    (Storage.Table.create ~name:"build" ~pk:"id"
       [| Storage.Column.of_ints ~name:"id" (some_init 200_000 (fun i -> i)) |]);
  Storage.Database.add_table db
    (Storage.Table.create ~name:"probe" ~fks:[ "build_id" ]
       [|
         Storage.Column.of_ints ~name:"id" (some_init 40_000 (fun i -> i));
         Storage.Column.of_ints ~name:"build_id"
           (some_init 40_000 (fun i -> (i * 7919) mod 200_000));
       |]);
  Storage.Database.set_index_config db Storage.Database.No_indexes;
  let rels =
    [|
      { QG.idx = 0; alias = "p"; table = Storage.Database.find_table db "probe"; preds = [] };
      { QG.idx = 1; alias = "b"; table = Storage.Database.find_table db "build"; preds = [] };
    |]
  in
  let g =
    QG.create ~name:"hash-penalty" rels
      [ { QG.left = 0; left_col = 1; right = 1; right_col = 0; pk_side = Some `Right } ]
  in
  let plan = Plan.join Plan.Hash_join ~outer:(Plan.scan 0) ~inner:(Plan.scan 1) in
  let work config =
    (Exec.Executor.run ~db ~graph:g ~config ~size_est:(fun _ -> 1.0) plan)
      .Exec.Executor.work
  in
  let fixed_under = work Exec.Engine_config.no_nl in
  let resizing = work Exec.Engine_config.robust in
  Alcotest.(check bool)
    (Printf.sprintf "undersized fixed (%d) slower than resizing (%d)" fixed_under
       resizing)
    true
    (fixed_under > 2 * resizing)

let test_engine_configs () =
  Alcotest.(check bool) "default allows NL" true
    Exec.Engine_config.default_9_4.Exec.Engine_config.allow_nl_join;
  Alcotest.(check bool) "no_nl forbids" false
    Exec.Engine_config.no_nl.Exec.Engine_config.allow_nl_join;
  Alcotest.(check bool) "robust resizes" true
    Exec.Engine_config.robust.Exec.Engine_config.resize_hash_tables

(* The scratch reserve is shared by every domain, so an array it hands
   out must have one holder until it is given back. Each slot takes an
   array, stamps it, spins, and checks the stamp before giving it back:
   a second holder would overwrite it. Request sizes vary, so best fit
   and eviction both run. *)
let test_reserve_exclusive () =
  let domains = 4 and rounds = 2000 and stamp = 16 in
  let clashes = Array.make domains 0 and short = Array.make domains 0 in
  let pool = Util.Domain_pool.create ~domains in
  Fun.protect
    ~finally:(fun () -> Util.Domain_pool.shutdown pool)
    (fun () ->
      Util.Domain_pool.run_workers pool (fun slot ->
          for i = 1 to rounds do
            let n = 1024 + ((((i * 7) + slot) mod 5) * 1000) in
            let a = Exec.Reserve.take n in
            if Array.length a < n then short.(slot) <- short.(slot) + 1;
            let mark = (i * domains) + slot in
            Array.fill a 0 stamp mark;
            for _ = 1 to 50 do
              Domain.cpu_relax ()
            done;
            for k = 0 to stamp - 1 do
              if a.(k) <> mark then clashes.(slot) <- clashes.(slot) + 1
            done;
            Exec.Reserve.give a
          done));
  Alcotest.(check int) "every array at least as long as asked" 0
    (Array.fold_left ( + ) 0 short);
  Alcotest.(check int) "no array held twice" 0 (Array.fold_left ( + ) 0 clashes)

let suite =
  [
    Alcotest.test_case "join table basics" `Quick test_join_table_basics;
    Alcotest.test_case "undersized chains" `Quick test_join_table_undersized_chains;
    Alcotest.test_case "resizing" `Quick test_join_table_resizing;
    join_table_finds_all;
    kernel_matches_oracle;
    all_plans_agree;
    merge_join_agrees_with_hash;
    Alcotest.test_case "merge join slower in memory" `Quick
      test_merge_join_costs_more_than_hash;
    Alcotest.test_case "rows match truth" `Quick test_executor_rows_match_truth;
    Alcotest.test_case "min projections" `Quick test_executor_mins;
    Alcotest.test_case "timeout" `Quick test_executor_timeout;
    Alcotest.test_case "NL gating" `Quick test_nl_disabled_raises;
    Alcotest.test_case "INL needs index" `Quick test_inl_without_index_raises;
    Alcotest.test_case "NL quadratic work" `Quick test_nl_charges_quadratic_work;
    Alcotest.test_case "undersized hash penalty" `Quick
      test_undersized_hash_table_penalty;
    Alcotest.test_case "engine configs" `Quick test_engine_configs;
    Alcotest.test_case "reserve hands each array to one holder" `Quick
      test_reserve_exclusive;
  ]
