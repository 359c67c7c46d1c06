(* Tests for the util library: PRNG, Zipf, statistics, bitsets,
   rendering. *)

let check = Alcotest.check
let checkf = Alcotest.check (Alcotest.float 1e-9)
let checkf_loose = Alcotest.check (Alcotest.float 1e-6)

(* --- Prng ------------------------------------------------------------ *)

let test_prng_determinism () =
  let a = Util.Prng.create 99 and b = Util.Prng.create 99 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Util.Prng.next a) (Util.Prng.next b)
  done

let test_prng_seeds_differ () =
  let a = Util.Prng.create 1 and b = Util.Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Util.Prng.next a = Util.Prng.next b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 5)

let test_prng_split_independent () =
  let parent = Util.Prng.create 5 in
  let child = Util.Prng.split parent in
  let c1 = Util.Prng.next child and p1 = Util.Prng.next parent in
  Alcotest.(check bool) "split diverges" true (c1 <> p1)

let prng_int_bounds =
  Support.qcheck_case ~name:"Prng.int stays in bounds"
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let t = Util.Prng.create seed in
      let v = Util.Prng.int t bound in
      v >= 0 && v < bound)

let prng_int_in_bounds =
  Support.qcheck_case ~name:"Prng.int_in inclusive bounds"
    QCheck.(triple small_int (int_range (-50) 50) (int_range 0 100))
    (fun (seed, lo, width) ->
      let hi = lo + width in
      let t = Util.Prng.create seed in
      let v = Util.Prng.int_in t lo hi in
      v >= lo && v <= hi)

let prng_float_bounds =
  Support.qcheck_case ~name:"Prng.float in [0, bound)"
    QCheck.(pair small_int (float_range 0.001 1000.0))
    (fun (seed, bound) ->
      let t = Util.Prng.create seed in
      let v = Util.Prng.float t bound in
      v >= 0.0 && v < bound)

let test_shuffle_permutation () =
  let t = Util.Prng.create 3 in
  let a = Array.init 50 (fun i -> i) in
  Util.Prng.shuffle t a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check
    Alcotest.(array int)
    "multiset preserved" (Array.init 50 (fun i -> i)) sorted

let sample_without_replacement_distinct =
  Support.qcheck_case ~name:"sample_without_replacement distinct and in range"
    QCheck.(triple small_int (int_range 0 30) (int_range 30 60))
    (fun (seed, k, n) ->
      let t = Util.Prng.create seed in
      let s = Util.Prng.sample_without_replacement t k n in
      Array.length s = k
      && Array.for_all (fun v -> v >= 0 && v < n) s
      && List.length (List.sort_uniq compare (Array.to_list s)) = k)

(* --- Zipf ------------------------------------------------------------ *)

let test_zipf_pmf_sums_to_one () =
  let z = Util.Zipf.create ~n:500 ~theta:0.9 in
  let sum = Array.fold_left ( +. ) 0.0 (Util.Zipf.weights z) in
  checkf_loose "pmf mass" 1.0 sum

let test_zipf_pmf_decreasing () =
  let z = Util.Zipf.create ~n:100 ~theta:1.1 in
  let w = Util.Zipf.weights z in
  for i = 0 to 98 do
    Alcotest.(check bool) "monotone" true (w.(i) >= w.(i + 1) -. 1e-12)
  done

let test_zipf_uniform_degenerate () =
  let z = Util.Zipf.create ~n:10 ~theta:0.0 in
  Array.iter (fun p -> checkf_loose "uniform" 0.1 p) (Util.Zipf.weights z)

let zipf_sample_in_range =
  Support.qcheck_case ~name:"Zipf.sample in range"
    QCheck.(pair small_int (int_range 1 200))
    (fun (seed, n) ->
      let z = Util.Zipf.create ~n ~theta:0.8 in
      let prng = Util.Prng.create seed in
      let v = Util.Zipf.sample z prng in
      v >= 0 && v < n)

let test_zipf_skew () =
  let z = Util.Zipf.create ~n:1000 ~theta:1.0 in
  let prng = Util.Prng.create 11 in
  let hits = Array.make 1000 0 in
  for _ = 1 to 20_000 do
    let r = Util.Zipf.sample z prng in
    hits.(r) <- hits.(r) + 1
  done;
  Alcotest.(check bool) "rank 0 dominates" true (hits.(0) > hits.(500) * 10)

(* --- Stat ------------------------------------------------------------ *)

let test_q_error_basics () =
  checkf "exact" 1.0 (Util.Stat.q_error ~estimate:42.0 ~truth:42.0);
  checkf "10x over" 10.0 (Util.Stat.q_error ~estimate:1000.0 ~truth:100.0);
  checkf "10x under" 10.0 (Util.Stat.q_error ~estimate:10.0 ~truth:100.0)

let test_floored () =
  checkf "above one" 42.0 (Util.Stat.floored 42.0);
  checkf "below one" 1.0 (Util.Stat.floored 0.3);
  checkf "zero" 1.0 (Util.Stat.floored 0.0);
  checkf "negative" 1.0 (Util.Stat.floored (-5.0))

let q_error_symmetric =
  Support.qcheck_case ~name:"q_error symmetric in estimate/truth"
    QCheck.(pair (float_range 0.1 1e6) (float_range 0.1 1e6))
    (fun (a, b) ->
      Float.abs
        (Util.Stat.q_error ~estimate:a ~truth:b
        -. Util.Stat.q_error ~estimate:b ~truth:a)
      < 1e-9)

let q_error_at_least_one =
  Support.qcheck_case ~name:"q_error >= 1"
    QCheck.(pair (float_range 0.0 1e6) (float_range 0.0 1e6))
    (fun (a, b) -> Util.Stat.q_error ~estimate:a ~truth:b >= 1.0)

let test_percentiles () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  checkf "median" 3.0 (Util.Stat.median xs);
  checkf "p0" 1.0 (Util.Stat.percentile xs 0.0);
  checkf "p100" 5.0 (Util.Stat.percentile xs 1.0);
  checkf "p25" 2.0 (Util.Stat.percentile xs 0.25);
  checkf "singleton" 9.0 (Util.Stat.median [| 9.0 |])

let test_percentile_empty_raises () =
  Alcotest.check_raises "empty input"
    (Invalid_argument "Stat.percentile: empty input") (fun () ->
      ignore (Util.Stat.percentile [||] 0.5))

let test_geometric_mean () =
  checkf_loose "gm(2,8)" 4.0 (Util.Stat.geometric_mean [| 2.0; 8.0 |]);
  checkf_loose "gm(5)" 5.0 (Util.Stat.geometric_mean [| 5.0 |])

let boxplot_ordered =
  Support.qcheck_case ~name:"boxplot percentiles ordered"
    QCheck.(array_of_size (QCheck.Gen.int_range 1 50) (float_range 0.0 100.0))
    (fun xs ->
      let b = Util.Stat.boxplot xs in
      b.Util.Stat.p5 <= b.Util.Stat.p25
      && b.Util.Stat.p25 <= b.Util.Stat.p50
      && b.Util.Stat.p50 <= b.Util.Stat.p75
      && b.Util.Stat.p75 <= b.Util.Stat.p95)

let test_linear_regression_exact () =
  let points = Array.init 20 (fun i -> (float_of_int i, (3.0 *. float_of_int i) +. 7.0)) in
  let fit = Util.Stat.linear_regression points in
  checkf_loose "slope" 3.0 fit.Util.Stat.slope;
  checkf_loose "intercept" 7.0 fit.Util.Stat.intercept;
  checkf_loose "r2" 1.0 fit.Util.Stat.r2

let percentile_monotone =
  Support.qcheck_case ~name:"percentile monotone in p"
    QCheck.(array_of_size (QCheck.Gen.int_range 1 30) (float_range 0.0 100.0))
    (fun xs ->
      let ps = [ 0.0; 0.1; 0.25; 0.5; 0.75; 0.9; 1.0 ] in
      let values = List.map (Util.Stat.percentile xs) ps in
      let rec ordered = function
        | a :: (b :: _ as rest) -> a <= b +. 1e-9 && ordered rest
        | _ -> true
      in
      ordered values)

let percentile_within_range =
  Support.qcheck_case ~name:"percentile within min/max"
    QCheck.(array_of_size (QCheck.Gen.int_range 1 30) (float_range (-50.0) 50.0))
    (fun xs ->
      let p = Util.Stat.percentile xs 0.37 in
      p >= Util.Stat.minimum xs -. 1e-9 && p <= Util.Stat.maximum xs +. 1e-9)

let test_bucketize () =
  let counts = Util.Stat.bucketize ~edges:[| 1.0; 10.0 |] [| 0.5; 1.0; 5.0; 10.0; 100.0 |] in
  check Alcotest.(array int) "buckets" [| 1; 2; 2 |] counts

let bucketize_conserves =
  Support.qcheck_case ~name:"bucketize conserves count"
    QCheck.(array_of_size (QCheck.Gen.int_range 0 40) (float_range (-5.0) 50.0))
    (fun xs ->
      let counts = Util.Stat.bucketize ~edges:[| 0.0; 10.0; 20.0 |] xs in
      Array.fold_left ( + ) 0 counts = Array.length xs)

(* --- Bitset ----------------------------------------------------------- *)

let small_set = QCheck.int_range 0 4095

let bitset_union_like_sets =
  Support.qcheck_case ~name:"bitset union/inter/diff laws"
    QCheck.(pair small_set small_set)
    (fun (a, b) ->
      let module B = Util.Bitset in
      B.union a b = b lor a
      && B.inter a b = (a land b)
      && B.diff a b land b = 0
      && B.union (B.inter a b) (B.diff a b) = a)

let bitset_cardinal =
  Support.qcheck_case ~name:"bitset cardinal = list length" small_set (fun s ->
      Util.Bitset.cardinal s = List.length (Util.Bitset.to_list s))

let bitset_roundtrip =
  Support.qcheck_case ~name:"bitset of_list/to_list roundtrip" small_set
    (fun s -> Util.Bitset.of_list (Util.Bitset.to_list s) = s)

let test_bitset_subsets_iter () =
  let s = Util.Bitset.of_list [ 0; 2; 5 ] in
  let seen = ref [] in
  Util.Bitset.subsets_iter s (fun sub -> seen := sub :: !seen);
  Alcotest.(check int) "2^3 - 2 proper non-empty subsets" 6 (List.length !seen);
  List.iter
    (fun sub ->
      Alcotest.(check bool) "subset" true (Util.Bitset.subset sub s);
      Alcotest.(check bool) "proper" true (sub <> s && sub <> 0))
    !seen

let test_bitset_lowest () =
  Alcotest.(check int) "lowest" 3 (Util.Bitset.lowest (Util.Bitset.of_list [ 3; 7 ]));
  Alcotest.(check int) "full 4" 15 (Util.Bitset.full 4)

(* --- Shard_map --------------------------------------------------------- *)

let shard_map_laws =
  Support.qcheck_case ~name:"shard_map find_or_add/remove/length laws"
    QCheck.(pair (int_range 1 8) (small_list small_int))
    (fun (shards, keys) ->
      let m = Util.Shard_map.create ~shards () in
      let distinct = List.sort_uniq compare keys in
      List.for_all
        (fun k ->
          let v1, c1 = Util.Shard_map.find_or_add m k (fun () -> k * 3) in
          let v2, c2 = Util.Shard_map.find_or_add m k (fun () -> -1) in
          c1 && (not c2) && v1 = k * 3 && v2 = k * 3
          && Util.Shard_map.find_opt m k = Some (k * 3))
        distinct
      && Util.Shard_map.length m = List.length distinct
      && List.for_all
           (fun k ->
             Util.Shard_map.remove m k
             && (not (Util.Shard_map.remove m k))
             && Util.Shard_map.find_opt m k = None)
           distinct
      && Util.Shard_map.length m = 0)

let shard_map_capacity_backstop =
  Support.qcheck_case ~name:"shard_map capacity caps retention, not results"
    QCheck.(pair (int_range 1 8) (int_range 1 64))
    (fun (capacity, n) ->
      let m = Util.Shard_map.create ~shards:1 ~capacity () in
      let results_ok = ref true in
      for k = 0 to n - 1 do
        let v, _created = Util.Shard_map.find_or_add m k (fun () -> k + 100) in
        results_ok := !results_ok && v = k + 100
      done;
      !results_ok
      && Util.Shard_map.length m = min n capacity
      && (n <= capacity
         || (* eviction through remove reopens the slot *)
         Util.Shard_map.remove m 0
         &&
         let v, created = Util.Shard_map.find_or_add m n (fun () -> 7) in
         v = 7 && created))

(* 3 worker domains + the caller race on the same keys: find_or_add must
   elect exactly one winner per key (everyone observing its value), and
   concurrent removes must succeed exactly once per key. *)
let test_shard_map_concurrent () =
  let pool = Util.Domain_pool.create ~domains:4 in
  Fun.protect
    ~finally:(fun () -> Util.Domain_pool.shutdown pool)
    (fun () ->
      let m = Util.Shard_map.create ~shards:4 () in
      let created = Atomic.make 0 in
      let winners = Array.make 4 (-1) in
      Util.Domain_pool.run_workers pool (fun slot ->
          for k = 0 to 99 do
            let v, c =
              Util.Shard_map.find_or_add m k (fun () -> (k * 10) + slot)
            in
            if c then Atomic.incr created;
            if k = 0 then winners.(slot) <- v
          done);
      Alcotest.(check int) "each key created exactly once" 100
        (Atomic.get created);
      Alcotest.(check int) "length counts every key" 100
        (Util.Shard_map.length m);
      Array.iter
        (fun w ->
          Alcotest.(check int) "every domain saw key 0's winner" winners.(0) w)
        winners;
      let removed = Atomic.make 0 in
      Util.Domain_pool.run_workers pool (fun _slot ->
          for k = 0 to 99 do
            if Util.Shard_map.remove m k then Atomic.incr removed
          done);
      Alcotest.(check int) "each key removed exactly once" 100
        (Atomic.get removed);
      Alcotest.(check int) "empty after concurrent removal" 0
        (Util.Shard_map.length m))

(* --- Render ------------------------------------------------------------ *)

let test_render_table () =
  let s =
    Util.Render.table ~title:"T" ~header:[ "a"; "bb" ]
      [ [ "x"; "1" ]; [ "yyy"; "22" ] ]
  in
  Alcotest.(check bool) "has title" true (String.length s > 0 && s.[0] = 'T');
  Alcotest.(check bool) "mentions rows" true
    (String.split_on_char '\n' s |> List.exists (fun l -> String.length l > 0))

let test_render_float_cell () =
  check Alcotest.string "small float" "1.50" (Util.Render.float_cell 1.5);
  check Alcotest.string "integral" "42" (Util.Render.float_cell 42.0);
  check Alcotest.string "large" "1677" (Util.Render.float_cell 1677.0);
  Alcotest.(check bool) "scientific" true
    (String.contains (Util.Render.float_cell 2.0e7) 'e')

let test_render_percent () =
  check Alcotest.string "25%" "25%" (Util.Render.percent_cell 0.253);
  check Alcotest.string "5.3%" "5.3%" (Util.Render.percent_cell 0.053)

let test_render_boxplot () =
  let b = Util.Stat.boxplot [| 1.0; 10.0; 100.0; 1000.0 |] in
  let s =
    Util.Render.log_boxplot_rows ~lo:0.1 ~hi:1e4
      [ ("row", Some b); ("empty", None) ]
  in
  Alcotest.(check bool) "median marker" true (String.contains s '|');
  Alcotest.(check bool) "no data row" true
    (String.split_on_char '\n' s
    |> List.exists (fun l -> String.length l >= 7 && String.sub l 0 5 = "empty"))

let test_json_escape () =
  Alcotest.(check string) "quotes, backslash, newline, control bytes"
    {|a\"b\\c\nd\u0009e\u001ff|}
    (Util.Json.escape "a\"b\\c\nd\te\x1ff");
  Alcotest.(check string) "UTF-8 and DEL pass through" "Am\xc3\xa9lie\x7f"
    (Util.Json.escape "Am\xc3\xa9lie\x7f")

let suite =
  [
    Alcotest.test_case "prng determinism" `Quick test_prng_determinism;
    Alcotest.test_case "prng seeds differ" `Quick test_prng_seeds_differ;
    Alcotest.test_case "prng split" `Quick test_prng_split_independent;
    prng_int_bounds;
    prng_int_in_bounds;
    prng_float_bounds;
    Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
    sample_without_replacement_distinct;
    Alcotest.test_case "zipf pmf mass" `Quick test_zipf_pmf_sums_to_one;
    Alcotest.test_case "zipf pmf decreasing" `Quick test_zipf_pmf_decreasing;
    Alcotest.test_case "zipf uniform theta=0" `Quick test_zipf_uniform_degenerate;
    zipf_sample_in_range;
    Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
    Alcotest.test_case "q-error basics" `Quick test_q_error_basics;
    Alcotest.test_case "floored" `Quick test_floored;
    q_error_symmetric;
    q_error_at_least_one;
    Alcotest.test_case "percentiles" `Quick test_percentiles;
    Alcotest.test_case "percentile empty" `Quick test_percentile_empty_raises;
    Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
    boxplot_ordered;
    Alcotest.test_case "linear regression" `Quick test_linear_regression_exact;
    percentile_monotone;
    percentile_within_range;
    Alcotest.test_case "bucketize" `Quick test_bucketize;
    bucketize_conserves;
    bitset_union_like_sets;
    bitset_cardinal;
    bitset_roundtrip;
    Alcotest.test_case "bitset subsets_iter" `Quick test_bitset_subsets_iter;
    Alcotest.test_case "bitset lowest/full" `Quick test_bitset_lowest;
    shard_map_laws;
    shard_map_capacity_backstop;
    Alcotest.test_case "shard_map concurrent winners" `Quick
      test_shard_map_concurrent;
    Alcotest.test_case "render table" `Quick test_render_table;
    Alcotest.test_case "render float cell" `Quick test_render_float_cell;
    Alcotest.test_case "json escape" `Quick test_json_escape;
    Alcotest.test_case "render percent" `Quick test_render_percent;
    Alcotest.test_case "render boxplot" `Quick test_render_boxplot;
  ]
