(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation, then micro-benchmarks each experiment's kernel
   with Bechamel (one Test.make per table/figure).

   With -j N (default: the core count) every experiment runs twice, on
   two independently-created harnesses — once serial, once with N worker
   domains — reporting wall-clock for both and the speedup, and writing
   the machine-readable BENCH_parallel.json. Two harnesses keep the
   comparison honest: a second render on one harness would be served
   almost entirely from its plan and estimator caches. --repeat N runs
   the whole comparison N times on fresh harness pairs and reports the
   per-experiment per-side median (still cold-cache times — the repeats
   only strip scheduler and GC-pacing noise).

     dune exec bench/main.exe                 -- everything, full scale
     dune exec bench/main.exe -- --scale 0.2  -- smaller database
     dune exec bench/main.exe -- -j 1         -- serial, no comparison
     dune exec bench/main.exe -- --only figure-3,table-2
     dune exec bench/main.exe -- --repeat 3   -- median over 3 cold runs
     dune exec bench/main.exe -- --skip-micro

   --scale-sweep S1,S2,... runs only the storage scale sweep: per
   scale it builds the database, reports per-encoding compressed sizes
   and query times, and writes BENCH_scale.json (see run_scale_sweep
   below).

   --morsel-sweep S1,S2,... runs only the intra-query scaling sweep:
   per scale it runs the five sweep queries at every --morsel-jobs
   worker count (default 1,2,4,8), enforces byte-identical results
   against the serial baseline (mismatch = exit 1), and writes the
   per-query scaling curves plus morsel-scheduler counters to
   BENCH_morsel.json. --exec-jobs N turns morsel execution on inside
   the regular experiment comparison (both twins get it).

   --obs-gate runs only the observability overhead gate: the golden
   113-query workload with tracing off and on (interleaved, best of
   three per arm), a byte-identity check between the arms, and a
   micro-measurement of the disabled instrumentation path, written to
   BENCH_obs.json. The gate fails (exit 1) if the arms diverge or the
   estimated disabled-path overhead exceeds 1% of the untraced wall
   time. *)

(* The experiment list is the catalog in lib/experiments — one source of
   truth shared with 'jobench experiment'. *)
let experiments =
  List.map
    (fun (e : Experiments.Catalog.entry) ->
      (e.Experiments.Catalog.id, e.Experiments.Catalog.render))
    Experiments.Catalog.all

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: the computational kernel behind each
   table/figure, measured in isolation on one representative query.     *)

let micro_tests (h : Experiments.Harness.t) =
  let q = Experiments.Harness.find h "13d" in
  let truth = Experiments.Harness.truth q in
  let graph = q.Experiments.Harness.graph in
  let db = h.Experiments.Harness.db in
  let pg = Experiments.Harness.estimator h q "PostgreSQL" in
  let full = Query.Query_graph.full_set graph in
  let true_search =
    Planner.Search.create ~model:Cost.Cost_model.cmm ~graph ~db
      ~card:(Cardest.True_card.card truth) ()
  in
  let sql = (Workload.Job.find "13d").Workload.Job.sql in
  let stage = Bechamel.Staged.stage in
  Storage.Database.set_index_config db Storage.Database.Pk_fk;
  let plan, _ = Planner.Dp.optimize true_search in
  [
    Bechamel.Test.make ~name:"table-1: base-table estimation (PostgreSQL, q13d)"
      (stage (fun () ->
           Array.iter
             (fun (r : Query.Query_graph.relation) ->
               ignore (pg.Cardest.Estimator.base r.Query.Query_graph.idx))
             (Query.Query_graph.relations graph)));
    Bechamel.Test.make ~name:"figure-3: full-query estimate (PostgreSQL, q13d)"
      (stage (fun () -> ignore (pg.Cardest.Estimator.subset full)));
    Bechamel.Test.make ~name:"figure-4: SQL parse+bind (q13d)"
      (stage (fun () -> ignore (Sqlfront.Binder.bind_sql db ~name:"13d" sql)));
    Bechamel.Test.make ~name:"figure-5: exact cardinalities (q13d, all subsets)"
      (stage (fun () -> ignore (Cardest.True_card.compute graph)));
    Bechamel.Test.make ~name:"table-4.1: execute optimal plan (robust engine, q13d)"
      (stage (fun () ->
           ignore
             (Exec.Executor.run ~db ~graph ~config:Exec.Engine_config.robust
                ~size_est:(Cardest.True_card.card truth) plan)));
    Bechamel.Test.make ~name:"figure-6: hash-join table build (64k inserts)"
      (stage (fun () ->
           let jt = Exec.Join_table.create ~estimated_rows:65536.0 ~resizable:true () in
           for i = 0 to 65535 do
             ignore (Exec.Join_table.insert jt ~hash:(Exec.Join_table.mix i) ~payload:i)
           done));
    Bechamel.Test.make ~name:"figure-7: index lookups (10k probes)"
      (stage
         (let idx =
            Storage.Database.force_index db ~table:"movie_companies"
              ~col:
                (Storage.Table.column_index
                   (Storage.Database.find_table db "movie_companies")
                   "movie_id")
          in
          fun () ->
            for key = 1 to 10_000 do
              ignore (Storage.Index.lookup idx key)
            done));
    Bechamel.Test.make ~name:"figure-8: plan cost evaluation (Cmm, q13d)"
      (stage (fun () ->
           let env =
             { Cost.Cost_model.graph; db; card = Cardest.True_card.card truth }
           in
           ignore (Cost.Cost_model.plan_cost Cost.Cost_model.cmm env plan)));
    Bechamel.Test.make ~name:"figure-9: one Quickpick sample (q13d)"
      (stage
         (let prng = Util.Prng.create 3 in
          fun () -> ignore (Planner.Quickpick.sample true_search prng)));
    Bechamel.Test.make ~name:"table-2: shape-restricted DP (left-deep, q13d)"
      (stage (fun () ->
           let s =
             Planner.Search.create ~shape:Planner.Search.Only_left_deep
               ~model:Cost.Cost_model.cmm ~graph ~db
               ~card:(Cardest.True_card.card truth) ()
           in
           ignore (Planner.Dp.optimize s)));
    Bechamel.Test.make ~name:"table-3: exhaustive DP (bushy, q13d)"
      (stage (fun () -> ignore (Planner.Dp.optimize true_search)));
  ]

let run_micro h =
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  print_endline "=== micro-benchmarks (Bechamel, one kernel per table/figure) ===";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          let ns =
            match Analyze.OLS.estimates ols_result with
            | Some [ est ] -> est
            | _ -> Float.nan
          in
          if ns > 1e6 then Printf.printf "%-58s %10.2f ms/run\n%!" name (ns /. 1e6)
          else if ns > 1e3 then
            Printf.printf "%-58s %10.2f us/run\n%!" name (ns /. 1e3)
          else Printf.printf "%-58s %10.0f ns/run\n%!" name ns)
        analyzed)
    (micro_tests h)

(* ------------------------------------------------------------------ *)
(* Kernel microbenchmarks: the two allocation-sensitive hot paths,
   before/after-visible. The executor kernel executes full plans with
   the scan predicate path toggled between the legacy row-at-a-time
   closures ([Exec.Executor.reference_scan]) and the vectorized
   selection vectors; the true-card kernel groups a fact table's rows
   with the legacy boxed representation (a polymorphic Hashtbl over
   fresh int-array keys, what True_card used before Group_table) versus
   Group_table's packed scratch keys. Both report wall clock and
   GC-allocated bytes per run, written to BENCH_exec.json.              *)

let time_alloc ~runs f =
  f (); (* warm-up: populate caches and size the scratch pools *)
  (* Start every kernel measurement at zero GC debt — otherwise a major
     slice owed by whatever ran before lands in this kernel's wall
     clock. *)
  Gc.full_major ();
  let a0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to runs do
    f ()
  done;
  let ms = (Unix.gettimeofday () -. t0) *. 1e3 /. float_of_int runs in
  let alloc = (Gc.allocated_bytes () -. a0) /. float_of_int runs in
  (ms, alloc)

type kernel_row = {
  kernel : string;
  reference_ms : float;
  reference_alloc : float;
  new_ms : float;
  new_alloc : float;
  work_units : int;  (* deterministic work, identical on both paths *)
}

let bench_exec_kernel (h : Experiments.Harness.t) =
  let engine = Exec.Engine_config.robust in
  let prepared =
    List.map
      (fun name ->
        let q = Experiments.Harness.find h name in
        let est = Experiments.Harness.estimator h q "true" in
        let plan, _ =
          Experiments.Harness.plan_with h q ~est ~model:Cost.Cost_model.cmm ()
        in
        (q, plan, est))
      [ "1a"; "3a"; "6a"; "16d"; "17b" ]
  in
  let work = ref 0 in
  let run_all () =
    work := 0;
    List.iter
      (fun (q, plan, est) ->
        let r =
          Experiments.Harness.execute h q ~plan
            ~size_est:est.Cardest.Estimator.subset ~engine
        in
        work := !work + r.Exec.Executor.work)
      prepared
  in
  let measure flag =
    Atomic.set Exec.Executor.reference_scan flag;
    Fun.protect
      ~finally:(fun () -> Atomic.set Exec.Executor.reference_scan false)
      (fun () -> time_alloc ~runs:10 run_all)
  in
  let reference_ms, reference_alloc = measure true in
  let new_ms, new_alloc = measure false in
  {
    kernel = "executor scan path (5 queries, robust engine)";
    reference_ms;
    reference_alloc;
    new_ms;
    new_alloc;
    work_units = !work;
  }

(* The merge-join sort side, before vs after: the seed built a boxed
   (hash, row) pair list per side — an option per key, a cons and a
   tuple per non-NULL row, sorted with polymorphic compare — where the
   executor now fills a flat int key array and sorts a row-index
   permutation with a monomorphic comparator. *)
let bench_sortside_kernel (h : Experiments.Harness.t) =
  let table =
    Storage.Database.find_table h.Experiments.Harness.db "cast_info"
  in
  let a =
    Storage.Column.to_codes
      (Storage.Table.column table (Storage.Table.column_index table "movie_id"))
  in
  let n = Storage.Table.row_count table in
  let null = Storage.Value.null_code in
  let sink = ref 0 in
  let legacy () =
    let pairs = ref [] in
    for i = n - 1 downto 0 do
      let key = if a.(i) = null then None else Some (Exec.Join_table.mix a.(i)) in
      match key with Some hash -> pairs := (hash, i) :: !pairs | None -> ()
    done;
    let arr = Array.of_list !pairs in
    Array.sort compare arr;
    sink := Array.length arr
  in
  let packed () =
    let keys = Array.make n 0 in
    let m = ref 0 in
    for i = 0 to n - 1 do
      let hash = if a.(i) = null then -1 else Exec.Join_table.mix a.(i) in
      keys.(i) <- hash;
      if hash >= 0 then incr m
    done;
    let idx = Array.make (max 1 !m) 0 in
    let k = ref 0 in
    for i = 0 to n - 1 do
      if keys.(i) >= 0 then begin
        idx.(!k) <- i;
        incr k
      end
    done;
    Array.sort
      (fun x y ->
        let c = Int.compare keys.(x) keys.(y) in
        if c <> 0 then c else Int.compare x y)
      idx;
    sink := Array.length idx
  in
  let reference_ms, reference_alloc = time_alloc ~runs:20 legacy in
  let new_ms, new_alloc = time_alloc ~runs:20 packed in
  {
    kernel = Printf.sprintf "merge-join sort side (cast_info, %d rows)" n;
    reference_ms;
    reference_alloc;
    new_ms;
    new_alloc;
    work_units = n;
  }

let bench_truecard_kernel (h : Experiments.Harness.t) =
  let table =
    Storage.Database.find_table h.Experiments.Harness.db "cast_info"
  in
  let col name =
    Storage.Column.to_codes
      (Storage.Table.column table (Storage.Table.column_index table name))
  in
  let a = col "movie_id" and b = col "role_id" in
  let n = Storage.Table.row_count table in
  (* Several passes over the table per run, so the steady state — every
     probe after the first pass hits an existing group, True_card's
     message-passing access pattern — dominates the one-time table
     setup on both sides. *)
  let reps = max 2 (100_000 / max 1 n) in
  (* The legacy kernel: one boxed int-array key allocated per probe,
     float refs as counts — the shape True_card grouped with before
     Group_table. *)
  let legacy_groups = ref 0 in
  let legacy () =
    let tbl : (int array, float ref) Hashtbl.t = Hashtbl.create 1024 in
    for _ = 1 to reps do
      for row = 0 to n - 1 do
        let key = [| a.(row); b.(row) |] in
        match Hashtbl.find_opt tbl key with
        | Some r -> r := !r +. 1.0
        | None -> Hashtbl.add tbl key (ref 1.0)
      done
    done;
    legacy_groups := Hashtbl.length tbl
  in
  let packed_groups = ref 0 in
  let packed () =
    let gt = Cardest.Group_table.create ~arity:2 () in
    let scratch = Cardest.Group_table.scratch gt in
    for _ = 1 to reps do
      for row = 0 to n - 1 do
        scratch.(0) <- a.(row);
        scratch.(1) <- b.(row);
        Cardest.Group_table.add_scratch gt 1.0
      done
    done;
    packed_groups := Cardest.Group_table.groups gt
  in
  let reference_ms, reference_alloc = time_alloc ~runs:10 legacy in
  let new_ms, new_alloc = time_alloc ~runs:10 packed in
  if !legacy_groups <> !packed_groups then
    Printf.printf "WARNING: group counts differ (legacy %d, packed %d)\n%!"
      !legacy_groups !packed_groups;
  {
    kernel =
      Printf.sprintf "true-card grouping (cast_info, %d rows x %d passes)" n
        reps;
    reference_ms;
    reference_alloc;
    new_ms;
    new_alloc;
    work_units = n * reps;
  }

(* ------------------------------------------------------------------ *)
(* The wall-clock baseline: serial vs parallel, as JSON                 *)

let write_bench_json ~path ~jobs ~scale ~seed ~repeats rows =
  let oc = open_out path in
  (* [cores] records the host's parallelism so a downstream reader can
     tell a real regression from a single-core host that had no
     parallelism to win (see the WARNING gating below). *)
  let cores = Domain.recommended_domain_count () in
  Printf.fprintf oc
    "{\n  \"jobs\": %d,\n  \"cores\": %d,\n  \"scale\": %g,\n  \"seed\": \
     %d,\n  \"repeats\": %d,\n  \"experiments\": [\n"
    jobs cores scale seed repeats;
  List.iteri
    (fun i (id, serial_ms, parallel_ms) ->
      let speedup = serial_ms /. Float.max 1e-9 parallel_ms in
      Printf.fprintf oc
        "    {\"id\": \"%s\", \"serial_ms\": %.3f, \"parallel_ms\": %.3f, \
         \"speedup\": %.3f, \"cores\": %d, \"regression\": %b}%s\n"
        (Util.Json.escape id) serial_ms parallel_ms speedup cores (speedup <= 1.0)
        (if i = List.length rows - 1 then "" else ",")
    )
    rows;
  output_string oc "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote %s\n%!" path

(* Machine-readable companion to the reopt experiment: per-system re-plan
   volume and the simulated-runtime recovery, read from the aggregates
   the experiment left behind rather than re-measuring. *)
let write_reopt_json ~path ~scale ~seed ~threshold
    (summaries : Experiments.Exp_reopt.summary list) =
  let oc = open_out path in
  Printf.fprintf oc
    "{\n  \"scale\": %g,\n  \"seed\": %d,\n  \"threshold\": %g,\n  \
     \"systems\": [\n"
    scale seed threshold;
  List.iteri
    (fun i (s : Experiments.Exp_reopt.summary) ->
      Printf.fprintf oc
        "    {\"system\": \"%s\", \"replans\": %d, \"queries_replanned\": \
         %d, \"off_total_ms\": %.3f, \"on_total_ms\": %.3f, \"speedup\": \
         %.3f, \"comparable\": %d}%s\n"
        (Util.Json.escape s.Experiments.Exp_reopt.system)
        s.Experiments.Exp_reopt.replans
        s.Experiments.Exp_reopt.replanned_queries
        s.Experiments.Exp_reopt.off_ms s.Experiments.Exp_reopt.on_ms
        (s.Experiments.Exp_reopt.off_ms
        /. Float.max 1e-9 s.Experiments.Exp_reopt.on_ms)
        s.Experiments.Exp_reopt.comparable
        (if i = List.length summaries - 1 then "" else ","))
    summaries;
  output_string oc "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote %s\n%!" path

let write_exec_json ~path ~scale ~seed rows =
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"scale\": %g,\n  \"seed\": %d,\n  \"kernels\": [\n"
    scale seed;
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"kernel\": \"%s\", \"reference_ms_per_run\": %.3f, \
         \"new_ms_per_run\": %.3f, \"speedup\": %.3f, \
         \"reference_alloc_bytes_per_run\": %.0f, \
         \"new_alloc_bytes_per_run\": %.0f, \"alloc_reduction\": %.3f, \
         \"work_units\": %d}%s\n"
        (Util.Json.escape r.kernel) r.reference_ms r.new_ms
        (r.reference_ms /. Float.max 1e-9 r.new_ms)
        r.reference_alloc r.new_alloc
        (r.reference_alloc /. Float.max 1.0 r.new_alloc)
        r.work_units
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote %s\n%!" path

(* ------------------------------------------------------------------ *)
(* Scale sweep: compressed storage from the reference 0.02 up to the
   paper's full-size 1.0, publishing wall time, allocated bytes,
   resident set and the compression ratio of every encoding to
   BENCH_scale.json. *)

let rss_mb () =
  try
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec find () =
          let line = input_line ic in
          if String.length line > 6 && String.sub line 0 6 = "VmRSS:" then
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
              (fun kb -> float_of_int kb /. 1024.0)
          else find ()
        in
        find ())
  with _ -> 0.0

(* The five kernel-benchmark queries: short enough to run at scale 1.0,
   together covering scans, string predicates, deep joins and MINs. *)
(* A storage-bound mix — four cheap-to-medium scans and one join-heavy
   query — chosen on two grounds. First, executor work must stay
   bounded as the database grows: most JOB queries go superlinear at
   some scale when the synthetic fanouts shift the plan (15a runs fine
   to 0.1, then blows past 2G work units at 0.5 on a 19 GB heap), and
   a capped run's wall clock measures GC on a multi-GB heap, not
   storage. Second, intermediate-result heap must stay in single-digit
   gigabytes at scale 1.0 — beyond that, single-core major-GC pacing
   swamps the storage signal (28d, at 2.7 GB for scale 0.05 already,
   swings 2x between identical passes). 1a/4a/6a/20a scale linearly;
   13d grows ~quadratically but stays under the raised work limit at
   scale 1.0, and is kept as the join-heavy anchor. *)
let sweep_queries = [ "1a"; "4a"; "6a"; "20a"; "13d" ]

let sweep_engine =
  {
    Exec.Engine_config.robust with
    name = "scale sweep";
    work_limit = 2_000_000_000;
    row_limit = 150_000_000;
  }

type storage_totals = {
  st_flat : int; (* bytes of the flat reference layout *)
  st_bytes : int; (* bytes as encoded *)
  st_dict_flat : int; (* same, over dictionary (string) columns only *)
  st_dict_bytes : int;
  st_by_encoding : (string * (int * int)) list; (* name -> columns, bytes *)
}

let storage_totals db =
  let flat = ref 0 and bytes = ref 0 in
  let dict_flat = ref 0 and dict_bytes = ref 0 in
  let per = Hashtbl.create 4 in
  List.iter
    (fun name ->
      Array.iter
        (fun c ->
          let fb = Storage.Column.flat_byte_size c in
          let eb = Storage.Column.byte_size c in
          flat := !flat + fb;
          bytes := !bytes + eb;
          if Storage.Column.ty c = Storage.Value.Str_ty then begin
            dict_flat := !dict_flat + fb;
            dict_bytes := !dict_bytes + eb
          end;
          let key = Storage.Column.encoding_name (Storage.Column.encoding c) in
          let n, b = Option.value ~default:(0, 0) (Hashtbl.find_opt per key) in
          Hashtbl.replace per key (n + 1, b + eb))
        (Storage.Table.columns (Storage.Database.find_table db name)))
    (Storage.Database.table_names db);
  {
    st_flat = !flat;
    st_bytes = !bytes;
    st_dict_flat = !dict_flat;
    st_dict_bytes = !dict_bytes;
    st_by_encoding =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) per []);
  }

(* Plan and execute the sweep queries; returns per-query fingerprints
   (rows, work, MINs) for the cross-encoding identity check plus wall
   time and allocated bytes over the whole set. *)
let sweep_run_queries db =
  let s = Core.Session.of_database db in
  (* ANALYZE and planning happen up front, outside the timed passes. *)
  let planned =
    List.map
      (fun name ->
        let q = Core.Session.job s name in
        (name, q, Core.Session.optimize s q))
      sweep_queries
  in
  (* Untimed warm-up: builds the lazy hash indexes, sizes the GC heap
     and faults in the pages, so the timed passes below measure
     storage, not first-run effects. [Gc.full_major] (never
     [Gc.compact]) between passes settles floating garbage without
     returning memory to the OS — compaction would force every pass to
     re-grow the heap from scratch, and that churn is exactly the
     cross-run noise the warm-up exists to remove. Per query the sweep
     reports the best of two timed passes: the executor is
     deterministic, so the minimum is the pass least disturbed by GC
     pacing. *)
  List.iter
    (fun (_, q, choice) ->
      ignore (Core.Session.run s ~engine:sweep_engine q choice))
    planned;
  let debug = Sys.getenv_opt "SWEEP_DEBUG" <> None in
  let timed_pass () =
    Gc.full_major ();
    let a0 = Gc.allocated_bytes () in
    let per_query =
      List.map
        (fun (name, q, choice) ->
          let cpu0 = Unix.times () in
          let q0 = Unix.gettimeofday () in
          let r = Core.Session.run s ~engine:sweep_engine q choice in
          let q_wall = (Unix.gettimeofday () -. q0) *. 1000.0 in
          let cpu1 = Unix.times () in
          let q_cpu =
            (cpu1.Unix.tms_utime -. cpu0.Unix.tms_utime
            +. (cpu1.Unix.tms_stime -. cpu0.Unix.tms_stime))
            *. 1000.0
          in
          if debug then begin
            let st = Gc.quick_stat () in
            Printf.printf "    [%s %.0fms work=%d majors=%d heap=%dMB]\n%!"
              name q_wall r.Exec.Executor.work st.Gc.major_collections
              (st.Gc.heap_words * 8 / 1048576)
          end;
          let fp =
            ( name,
              r.Exec.Executor.rows,
              r.Exec.Executor.work,
              List.map Storage.Value.to_string r.Exec.Executor.mins )
          in
          (fp, q_wall, q_cpu))
        planned
    in
    (per_query, Gc.allocated_bytes () -. a0)
  in
  let pass1, allocated = timed_pass () in
  let pass2, _ = timed_pass () in
  let fingerprints = List.map (fun (fp, _, _) -> fp) pass1 in
  let wall_ms =
    List.fold_left2
      (fun acc (_, w1, _) (_, w2, _) -> acc +. Float.min w1 w2)
      0.0 pass1 pass2
  in
  let cpu_ms =
    List.fold_left2
      (fun acc (_, _, c1) (_, _, c2) -> acc +. Float.min c1 c2)
      0.0 pass1 pass2
  in
  (fingerprints, wall_ms, cpu_ms, allocated)

let run_scale_sweep ~seed scales =
  (* Same GC tuning the worker domains get (Domain_pool.tune_gc): a big
     minor heap and a relaxed space_overhead keep major-GC pacing from
     dominating the timed passes. *)
  Gc.set
    { (Gc.get ()) with Gc.minor_heap_size = 4_194_304; space_overhead = 200 };
  let mismatches = ref 0 in
  let steps =
    List.map
      (fun scale ->
        Printf.printf "scale %g: generating...%!" scale;
        let t0 = Unix.gettimeofday () in
        let db = Datagen.Imdb_gen.generate ~seed ~scale () in
        let build_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
        let rows = Storage.Database.total_rows db in
        let totals = storage_totals db in
        Printf.printf " %d rows, %.0f ms, %.1fx compression\n%!" rows build_ms
          (float_of_int totals.st_flat /. float_of_int (max 1 totals.st_bytes));
        let fingerprints, wall_ms, cpu_ms, allocated = sweep_run_queries db in
        let resident = rss_mb () in
        (* Per-encoding forced totals; at the smaller steps also re-run
           the queries per encoding and demand identical results (the
           storage-level determinism guard). *)
        let forced =
          List.map
            (fun enc ->
              let name = Storage.Column.encoding_name enc in
              Printf.printf "  forced %-8s%!" name;
              let t0 = Unix.gettimeofday () in
              let fdb = Storage.Database.recode db enc in
              let recode_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
              let ftotals = storage_totals fdb in
              let ftimes =
                if scale <= 0.11 then begin
                  let ffp, fwall, fcpu, _ = sweep_run_queries fdb in
                  if ffp <> fingerprints then begin
                    incr mismatches;
                    Printf.printf " RESULT MISMATCH%!"
                  end;
                  Some (fwall, fcpu)
                end
                else None
              in
              Printf.printf " %.1fx compression, recode %.0f ms%s\n%!"
                (float_of_int ftotals.st_flat /. float_of_int (max 1 ftotals.st_bytes))
                recode_ms
                (match ftimes with
                | Some (w, c) ->
                    Printf.sprintf ", queries %.0f ms wall / %.0f ms cpu" w c
                | None -> "");
              (name, ftotals.st_bytes, ftimes))
            Storage.Column.all_encodings
        in
        Printf.printf "  queries (chosen): %.0f ms wall / %.0f ms cpu\n%!" wall_ms
          cpu_ms;
        (scale, rows, build_ms, totals, wall_ms, cpu_ms, allocated, resident, forced))
      scales
  in
  let oc = open_out "BENCH_scale.json" in
  Printf.fprintf oc "{\n  \"seed\": %d,\n  \"queries\": [%s],\n  \"sweep\": [\n"
    seed
    (String.concat ", " (List.map (fun q -> "\"" ^ q ^ "\"") sweep_queries));
  List.iteri
    (fun i (scale, rows, build_ms, totals, wall_ms, cpu_ms, allocated, resident, forced)
         ->
      Printf.fprintf oc
        "    {\n      \"scale\": %g,\n      \"rows\": %d,\n      \"build_ms\": \
         %.1f,\n      \"query_wall_ms\": %.1f,\n      \"query_cpu_ms\": %.1f,\n      \
         \"allocated_bytes\": %.0f,\n      \"rss_mb\": %.1f,\n"
        scale rows build_ms wall_ms cpu_ms allocated resident;
      Printf.fprintf oc
        "      \"flat_bytes\": %d,\n      \"chosen_bytes\": %d,\n      \
         \"compression_ratio\": %.3f,\n      \"dict_flat_bytes\": %d,\n      \
         \"dict_chosen_bytes\": %d,\n      \"dict_compression_ratio\": %.3f,\n"
        totals.st_flat totals.st_bytes
        (float_of_int totals.st_flat /. float_of_int (max 1 totals.st_bytes))
        totals.st_dict_flat totals.st_dict_bytes
        (float_of_int totals.st_dict_flat
        /. float_of_int (max 1 totals.st_dict_bytes));
      Printf.fprintf oc "      \"chosen_encodings\": {%s},\n"
        (String.concat ", "
           (List.map
              (fun (k, (n, b)) ->
                Printf.sprintf "\"%s\": {\"columns\": %d, \"bytes\": %d}" k n b)
              totals.st_by_encoding));
      Printf.fprintf oc "      \"forced\": {%s}\n    }%s\n"
        (String.concat ", "
           (List.map
              (fun (name, bytes, ftimes) ->
                Printf.sprintf
                  "\"%s\": {\"bytes\": %d, \"ratio\": %.3f%s}" name bytes
                  (float_of_int totals.st_flat /. float_of_int (max 1 bytes))
                  (match ftimes with
                  | Some (w, c) ->
                      Printf.sprintf
                        ", \"query_wall_ms\": %.1f, \"query_cpu_ms\": %.1f" w c
                  | None -> ""))
              forced))
        (if i = List.length steps - 1 then "" else ","))
    steps;
  output_string oc "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote BENCH_scale.json\n%!";
  if !mismatches > 0 then begin
    Printf.printf "FAIL: %d per-encoding result mismatches\n%!" !mismatches;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Morsel sweep: intra-query scaling curves. Per scale it builds the
   database once, then runs the five sweep queries at each worker count
   (default 1,2,4,8), enforcing byte-identical results against the
   serial baseline and publishing per-query wall clock plus the morsel
   scheduler's counters to BENCH_morsel.json. *)

let morsel_run_queries s planned ~pool =
  (* Untimed warm-up (indexes, heap sizing, page faults), then reset
     the scheduler counters so the published telemetry covers exactly
     the timed passes. Best-of-two per query, as in the scale sweep:
     the executor is deterministic, so the minimum is the pass least
     disturbed by GC pacing. *)
  List.iter
    (fun (_, q, choice) ->
      ignore (Core.Session.run s ~engine:sweep_engine ?pool q choice))
    planned;
  Exec.Morsel.reset_stats ();
  let pass () =
    Gc.full_major ();
    List.map
      (fun (name, q, choice) ->
        let t0 = Unix.gettimeofday () in
        let r = Core.Session.run s ~engine:sweep_engine ?pool q choice in
        let wall = (Unix.gettimeofday () -. t0) *. 1000.0 in
        let fp =
          ( name,
            r.Exec.Executor.rows,
            r.Exec.Executor.work,
            List.map Storage.Value.to_string r.Exec.Executor.mins )
        in
        (fp, wall))
      planned
  in
  let pass1 = pass () in
  let pass2 = pass () in
  let stats = Exec.Morsel.stats () in
  let fingerprints = List.map fst pass1 in
  let walls =
    List.map2
      (fun ((name, _, _, _), w1) (_, w2) -> (name, Float.min w1 w2))
      pass1 pass2
  in
  (fingerprints, walls, stats)

let run_morsel_sweep ~seed ~jobs_list scales =
  Gc.set
    { (Gc.get ()) with Gc.minor_heap_size = 4_194_304; space_overhead = 200 };
  let jobs_list = match jobs_list with [] -> [ 1 ] | l -> l in
  let mismatches = ref 0 in
  let steps =
    List.map
      (fun scale ->
        Printf.printf "scale %g: generating...%!" scale;
        let db = Datagen.Imdb_gen.generate ~seed ~scale () in
        let rows = Storage.Database.total_rows db in
        Printf.printf " %d rows\n%!" rows;
        let s = Core.Session.of_database db in
        (* Plan once, outside every timed region: all worker counts
           execute the same physical plans. *)
        let planned =
          List.map
            (fun name ->
              let q = Core.Session.job s name in
              (name, q, Core.Session.optimize s q))
            sweep_queries
        in
        let baseline = ref None in
        let runs =
          List.map
            (fun nj ->
              let pool =
                if nj > 1 then Some (Util.Domain_pool.create ~domains:nj)
                else None
              in
              let fingerprints, walls, stats =
                Fun.protect
                  ~finally:(fun () ->
                    match pool with
                    | Some p -> Util.Domain_pool.shutdown p
                    | None -> ())
                  (fun () -> morsel_run_queries s planned ~pool)
              in
              (match !baseline with
              | None -> baseline := Some fingerprints
              | Some fp0 ->
                  if fingerprints <> fp0 then begin
                    incr mismatches;
                    Printf.printf
                      "  RESULT MISMATCH at %d exec jobs (scale %g)\n%!" nj
                      scale
                  end);
              let total = List.fold_left (fun a (_, w) -> a +. w) 0.0 walls in
              Printf.printf
                "  exec-jobs %d: %7.1f ms total  (%s)  phases %d, morsels \
                 %d, stolen %d, skew %.2f\n%!"
                nj total
                (String.concat ", "
                   (List.map
                      (fun (n, w) -> Printf.sprintf "%s %.0f" n w)
                      walls))
                stats.Exec.Morsel.st_phases stats.Exec.Morsel.st_dispatched
                stats.Exec.Morsel.st_stolen stats.Exec.Morsel.st_skew;
              (nj, total, walls, stats))
            jobs_list
        in
        (match runs with
        | (1, serial_total, _, _) :: rest ->
            List.iter
              (fun (nj, total, _, _) ->
                Printf.printf "  speedup at %d exec jobs: %.2fx\n%!" nj
                  (serial_total /. Float.max 1e-9 total))
              rest
        | _ -> ());
        (scale, rows, runs))
      scales
  in
  let oc = open_out "BENCH_morsel.json" in
  Printf.fprintf oc
    "{\n  \"seed\": %d,\n  \"queries\": [%s],\n  \"exec_jobs\": [%s],\n  \
     \"sweep\": [\n"
    seed
    (String.concat ", " (List.map (fun q -> "\"" ^ q ^ "\"") sweep_queries))
    (String.concat ", " (List.map string_of_int jobs_list));
  List.iteri
    (fun i (scale, rows, runs) ->
      let serial_total =
        match runs with
        | (1, t, _, _) :: _ -> Some t
        | _ -> None
      in
      Printf.fprintf oc
        "    {\n      \"scale\": %g,\n      \"rows\": %d,\n      \"runs\": [\n"
        scale rows;
      List.iteri
        (fun j (nj, total, walls, (stats : Exec.Morsel.stats)) ->
          Printf.fprintf oc
            "        {\"exec_jobs\": %d, \"total_wall_ms\": %.3f, \
             \"speedup\": %.3f, \"queries\": {%s}, \"morsel_phases\": %d, \
             \"morsels_dispatched\": %d, \"morsels_stolen\": %d, \
             \"build_skew\": %.3f}%s\n"
            nj total
            (match serial_total with
            | Some st -> st /. Float.max 1e-9 total
            | None -> 1.0)
            (String.concat ", "
               (List.map
                  (fun (n, w) -> Printf.sprintf "\"%s\": %.3f" n w)
                  walls))
            stats.Exec.Morsel.st_phases stats.Exec.Morsel.st_dispatched
            stats.Exec.Morsel.st_stolen stats.Exec.Morsel.st_skew
            (if j = List.length runs - 1 then "" else ","))
        runs;
      Printf.fprintf oc "      ]\n    }%s\n"
        (if i = List.length steps - 1 then "" else ","))
    steps;
  output_string oc "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote BENCH_morsel.json\n%!";
  if !mismatches > 0 then begin
    Printf.printf
      "FAIL: %d serial-vs-morsel result mismatches (determinism violated)\n%!"
      !mismatches;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* The observability overhead gate (--obs-gate): acceptance evidence
   that the executor can carry its trace instrumentation permanently.
   Two arms over the golden 113-query workload — tracing disabled and
   enabled — interleaved best-of-three with a byte-identity check, plus
   a direct micro-measurement of the disabled start/span pair, scaled
   by the spans one traced pass records. The per-pass estimate is the
   enforced figure: wall-clock deltas between the arms on a busy box
   are dominated by scheduler noise, while ns-per-site times
   sites-per-pass is stable and conservative. *)

let run_obs_gate ~seed ~scale =
  Printf.printf
    "obs gate: golden workload traced vs untraced (scale %g, seed %d)\n%!"
    scale seed;
  let sess = Core.Session.create ~seed ~scale () in
  let entries =
    List.map
      (fun (jq : Workload.Job.query) ->
        let q = Core.Session.job sess jq.Workload.Job.name in
        (q, Core.Session.optimize sess q))
      Workload.Job.all
  in
  let pass () =
    List.map
      (fun (q, c) ->
        let r = Core.Session.run sess q c in
        ( r.Exec.Executor.rows,
          r.Exec.Executor.work,
          List.map Storage.Value.to_string r.Exec.Executor.mins ))
      entries
  in
  ignore (pass ());
  (* Warmed caches; both arms now execute identical plans. *)
  let timed f =
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, (Unix.gettimeofday () -. t0) *. 1e3)
  in
  let off_ms = ref infinity and on_ms = ref infinity in
  let off_fp = ref None and on_fp = ref None in
  let spans_per_pass = ref 0 in
  for _ = 1 to 3 do
    Obs.Trace.set_enabled false;
    let fp, ms = timed pass in
    off_ms := Float.min !off_ms ms;
    off_fp := Some fp;
    Obs.Trace.set_enabled true;
    Obs.Trace.clear ();
    let fp, ms = timed pass in
    let spans, _ = Obs.Trace.flush () in
    spans_per_pass := List.length spans;
    on_ms := Float.min !on_ms ms;
    on_fp := Some fp
  done;
  Obs.Trace.set_enabled false;
  let identity = !off_fp = !on_fp in
  (* The disabled path in isolation: one start/span pair per site. *)
  let ph_probe = Obs.Trace.intern "bench.obs_probe" in
  let iters = 20_000_000 in
  let t0 = Unix.gettimeofday () in
  let sink = ref 0 in
  for _ = 1 to iters do
    let t = Obs.Trace.start () in
    Obs.Trace.span ph_probe ~t0:t ~a:0 ~b:0;
    sink := !sink + t
  done;
  let ns_per_site = (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters in
  ignore (Sys.opaque_identity !sink);
  let disabled_overhead_est =
    if !off_ms <= 0.0 then 0.0
    else ns_per_site *. float_of_int !spans_per_pass /. (!off_ms *. 1e6)
  in
  let within_budget = disabled_overhead_est < 0.01 in
  let enabled_overhead =
    if !off_ms <= 0.0 then 0.0 else (!on_ms -. !off_ms) /. !off_ms
  in
  let oc = open_out "BENCH_obs.json" in
  Printf.fprintf oc
    "{\n\
    \  \"benchmark\": \"obs\",\n\
    \  \"scale\": %g,\n\
    \  \"seed\": %d,\n\
    \  \"queries\": %d,\n\
    \  \"off_wall_ms\": %.3f,\n\
    \  \"on_wall_ms\": %.3f,\n\
    \  \"enabled_overhead\": %.4f,\n\
    \  \"spans_per_pass\": %d,\n\
    \  \"disabled_ns_per_site\": %.2f,\n\
    \  \"disabled_overhead_est\": %.6f,\n\
    \  \"within_budget\": %b,\n\
    \  \"identity\": %b\n\
     }\n"
    scale seed Workload.Job.query_count !off_ms !on_ms enabled_overhead
    !spans_per_pass ns_per_site disabled_overhead_est within_budget identity;
  close_out oc;
  Printf.printf
    "wrote BENCH_obs.json (untraced %.1fms, traced %.1fms, %d spans/pass, \
     disabled path %.1fns/site = %.4f%% est overhead)\n\
     %!"
    !off_ms !on_ms !spans_per_pass ns_per_site
    (100.0 *. disabled_overhead_est);
  if not identity then begin
    Printf.printf "FAIL: traced and untraced results diverge\n%!";
    exit 1
  end;
  if not within_budget then begin
    Printf.printf
      "FAIL: disabled tracing path estimated at >= 1%% of workload wall time\n%!";
    exit 1
  end

let () =
  let scale = ref Datagen.Imdb_gen.reference_scale in
  let seed = ref 42 in
  let only = ref None in
  let skip_micro = ref false in
  let repeat = ref 1 in
  let jobs = ref (Domain.recommended_domain_count ()) in
  let exec_jobs = ref 1 in
  let sweep = ref None in
  let morsel_sweep = ref None in
  let morsel_jobs = ref [ 1; 2; 4; 8 ] in
  let obs_gate = ref false in
  let rec parse = function
    | [] -> ()
    | "--scale-sweep" :: v :: rest ->
        sweep :=
          Some
            (String.split_on_char ',' v |> List.map String.trim
           |> List.map float_of_string);
        parse rest
    | "--morsel-sweep" :: v :: rest ->
        morsel_sweep :=
          Some
            (String.split_on_char ',' v |> List.map String.trim
           |> List.map float_of_string);
        parse rest
    | "--morsel-jobs" :: v :: rest ->
        morsel_jobs :=
          String.split_on_char ',' v |> List.map String.trim
          |> List.map int_of_string;
        parse rest
    | "--exec-jobs" :: v :: rest ->
        exec_jobs := int_of_string v;
        parse rest
    | "--scale" :: v :: rest ->
        scale := float_of_string v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        parse rest
    | "--only" :: v :: rest ->
        only := Some v;
        parse rest
    | "--obs-gate" :: rest ->
        obs_gate := true;
        parse rest
    | "--skip-micro" :: rest ->
        skip_micro := true;
        parse rest
    | "--repeat" :: v :: rest ->
        repeat := int_of_string v;
        parse rest
    | ("-j" | "--jobs") :: v :: rest ->
        jobs := int_of_string v;
        parse rest
    | arg :: _ -> failwith (Printf.sprintf "unknown argument %s" arg)
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !jobs < 1 then failwith "-j must be >= 1";
  if !exec_jobs < 1 then failwith "--exec-jobs must be >= 1";
  if List.exists (fun n -> n < 1) !morsel_jobs then
    failwith "--morsel-jobs entries must be >= 1";
  (match !sweep with
  | Some scales ->
      Util.Domain_pool.tune_gc ();
      run_scale_sweep ~seed:!seed scales;
      exit 0
  | None -> ());
  (match !morsel_sweep with
  | Some scales ->
      Util.Domain_pool.tune_gc ();
      run_morsel_sweep ~seed:!seed ~jobs_list:!morsel_jobs scales;
      exit 0
  | None -> ());
  if !obs_gate then begin
    Util.Domain_pool.tune_gc ();
    run_obs_gate ~seed:!seed ~scale:!scale;
    exit 0
  end;
  (* Pool workers tune their GC on spawn; the main domain executes the
     serial halves and its share of parallel maps, so it runs under the
     same regime. *)
  Util.Domain_pool.tune_gc ();
  let t0 = Unix.gettimeofday () in
  Printf.printf
    "Join Order Benchmark reproduction - regenerating all paper results\n\
     (scale %g, seed %d, %d queries, %d jobs)\n\n%!"
    !scale !seed Workload.Job.query_count !jobs;
  let selected =
    match !only with
    | None -> experiments
    | Some ids ->
        let wanted = String.split_on_char ',' ids |> List.map String.trim in
        let known = List.map fst experiments in
        let unknown = List.filter (fun w -> not (List.mem w known)) wanted in
        if unknown <> [] then begin
          Printf.eprintf "error: unknown experiment%s %s for --only\n"
            (if List.length unknown > 1 then "s" else "")
            (String.concat ", " unknown);
          Printf.eprintf "valid experiments: %s\n%!" (String.concat ", " known);
          exit 2
        end;
        List.filter (fun (i, _) -> List.mem i wanted) experiments
  in
  (* id -> per-repeat (serial_ms, parallel_ms) samples. Each repeat is a
     fully cold pair of harnesses, so every sample is a cold-run time —
     the reported per-side median just strips scheduler and GC-pacing
     noise, which on a small box can dwarf the quantity being
     measured. *)
  let samples : (string, (float * float) list) Hashtbl.t =
    Hashtbl.create 16
  in
  let mismatches = ref [] in
  let last_h = ref None in
  for r = 1 to !repeat do
    (* Drop the previous repeat's harness before building the next pair:
       keeping it alive would grow the live heap every repeat, and major
       GC marks the whole live set — the extra marking lands inside the
       timed windows. Compacting returns the freed pools to a dense
       heap, so repeat r starts from the same memory state as repeat
       1. *)
    (match !last_h with
    | Some prev ->
        Experiments.Harness.shutdown prev;
        last_h := None;
        Gc.compact ()
    | None -> ());
    let h =
      Experiments.Harness.create ~seed:!seed ~scale:!scale
        ~exec_jobs:!exec_jobs ()
    in
    if r = 1 then
      Printf.printf "database: %d tables, %d rows\n\n%!"
        (List.length (Storage.Database.table_names h.Experiments.Harness.db))
        (Storage.Database.total_rows h.Experiments.Harness.db);
    (* The parallel twin: same seed and scale, its own caches. Each
       experiment renders on both at an identical cache state (both have
       rendered exactly the same prior experiments). *)
    (* Both twins get the same --exec-jobs, so the serial/parallel
       comparison still isolates the inter-query fan-out. *)
    let h_par =
      if !jobs > 1 then
        Some
          (Experiments.Harness.create ~seed:!seed ~scale:!scale ~jobs:!jobs
             ~exec_jobs:!exec_jobs ())
      else None
    in
    (* Spawn the parallel pool's worker domains before any timed region:
       the first par_map otherwise pays domain spawn + minor-arena
       first-touch inside experiment 1's parallel window. *)
    (match h_par with
    | Some hp when Experiments.Harness.jobs hp > 1 ->
        ignore (Experiments.Harness.par_map hp Fun.id [| 0; 1; 2; 3 |])
    | _ -> ());
    List.iter
      (fun (id, render) ->
        (* Collect before each timed window so GC debt accrued by one
           render is not billed to the next (serial and parallel windows
           alternate on twin harnesses — without this, a major slice
           triggered by the previous render lands in the current one's
           wall clock and the speedup column turns into noise). *)
        Gc.full_major ();
        let t1 = Unix.gettimeofday () in
        let output = render h in
        let serial_ms = (Unix.gettimeofday () -. t1) *. 1e3 in
        match h_par with
        | None ->
            if r = 1 then
              Printf.printf "=== %s ===\n%s\n(%.1fs)\n\n%!" id output
                (serial_ms /. 1e3)
            else Printf.printf "repeat %d: %s %.1fs\n%!" r id (serial_ms /. 1e3)
        | Some hp ->
            Gc.full_major ();
            let t2 = Unix.gettimeofday () in
            let par_output = render hp in
            let parallel_ms = (Unix.gettimeofday () -. t2) *. 1e3 in
            if not (String.equal output par_output) then begin
              if not (List.mem id !mismatches) then
                mismatches := id :: !mismatches;
              Printf.printf
                "ERROR: %s output differs between -j 1 and -j %d\n%!" id !jobs
            end;
            Hashtbl.replace samples id
              ((serial_ms, parallel_ms)
              ::
              (match Hashtbl.find_opt samples id with
              | Some l -> l
              | None -> []));
            if r = 1 then
              Printf.printf
                "=== %s ===\n%s\n(serial %.1fs, %d jobs %.1fs, speedup \
                 %.2fx)\n\n%!"
                id output (serial_ms /. 1e3) !jobs (parallel_ms /. 1e3)
                (serial_ms /. Float.max 1e-9 parallel_ms)
            else
              Printf.printf "repeat %d: %s serial %.1fs, %d jobs %.1fs\n%!" r
                id (serial_ms /. 1e3) !jobs (parallel_ms /. 1e3))
      selected;
    (match h_par with
    | Some hp -> Experiments.Harness.shutdown hp
    | None -> ());
    last_h := Some h
  done;
  let h = Option.get !last_h in
  Printf.printf "\n--- %s\n\n%!" (Experiments.Harness.stats_summary h);
  if !jobs > 1 then begin
    let median = Obs.Histogram.median_of_list in
    let rows =
      List.map
        (fun (id, _) ->
          let l = Hashtbl.find samples id in
          (id, median (List.map fst l), median (List.map snd l)))
        selected
    in
    if !repeat > 1 then
      List.iter
        (fun (id, s, p) ->
          Printf.printf
            "median of %d: %s serial %.1fs, %d jobs %.1fs, speedup %.2fx\n%!"
            !repeat id (s /. 1e3) !jobs (p /. 1e3) (s /. Float.max 1e-9 p))
        rows;
    (* Per-experiment regression flag: a parallel render no faster than
       serial is worth a loud line even though it is not an error (tiny
       scales legitimately have nothing to win). On a single-core host
       every row is trivially "no speedup" — extra domains only add
       scheduling overhead — so the noise is suppressed there; the JSON
       rows still record the host's core count for downstream readers. *)
    if Domain.recommended_domain_count () > 1 then
      List.iter
        (fun (id, s, p) ->
          let speedup = s /. Float.max 1e-9 p in
          if speedup <= 1.0 then
            Printf.printf
              "WARNING: %s shows no parallel speedup (%.2fx at %d jobs)\n%!"
              id speedup !jobs)
        rows;
    write_bench_json ~path:"BENCH_parallel.json" ~jobs:!jobs ~scale:!scale
      ~seed:!seed ~repeats:!repeat rows
  end;
  (* Written only when the reopt experiment was among the selected ones:
     its render fills last_summaries. The last render wins (the parallel
     twin's, when -j > 1) — renders are byte-identical across job
     counts, so the aggregates match the printed tables either way. *)
  (match Atomic.get Experiments.Exp_reopt.last_summaries with
  | [] -> ()
  | summaries ->
      write_reopt_json ~path:"BENCH_reopt.json" ~scale:!scale ~seed:!seed
        ~threshold:(Atomic.get Experiments.Exp_reopt.threshold) summaries);
  write_exec_json ~path:"BENCH_exec.json" ~scale:!scale ~seed:!seed
    [ bench_exec_kernel h; bench_sortside_kernel h; bench_truecard_kernel h ];
  if not !skip_micro then run_micro h;
  Printf.printf "\ntotal: %.1fs\n" (Unix.gettimeofday () -. t0);
  (* The determinism guard: any -j 1 vs -j N divergence fails the run
     (and, in CI, the build). *)
  if !mismatches <> [] then begin
    Printf.printf "FAILED: non-deterministic output for %s\n"
      (String.concat ", " (List.rev !mismatches));
    exit 1
  end
