(* perfbench: the repository benchmark.

     main.exe --workload W --seed N --seconds S --trace 0|1

   runs one workload in this process and prints, as its last line, one
   JSON object {correct, attempted, failed, metrics}. With --trace 0 the
   metrics are the end-to-end ones; with --trace 1 the process makes an
   untraced pass and then a traced pass on fresh state, and reports the
   per-layer split of the traced one. Earlier lines carry a stamp (the
   build, machine and regime), a readable metric table and, when
   traced, one detail row per query or (query, estimator).

   Workloads (see perfbench/README.md for the reasons):
     job-exec      cold pass over the 113 JOB queries, serial executor
     job-morsel    the same pass on a 2-domain morsel pool
     job-optimize  the optimizer matrix of Table 1 / Fig. 3 / Table 3
     serve-zipf    closed-loop Zipfian serving, join cache on

   The data is always generated from seed 42, whose answers are
   committed under perfbench/refs/, and ANALYZE keeps its default seed.
   The JOB workloads are fixed inputs: across data seeds the job-exec
   pass moves between 22 and 42 s, and across ANALYZE seeds its peak
   RSS between 2.2 and 2.8 GB, which no bound could absorb. The
   workload seed orders serve-zipf's requests. *)

module M = Measure
module P = Core.Pipeline

let data_seed = 42

let scale_job = Datagen.Imdb_gen.reference_scale
let scale_optimize = 0.002
let smoke_scale = 0.001
let domains = 2
let min_replans = 4
let zipf_theta = 1.1

type opts = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  smoke : bool;
  corrupt : bool;
  refs_dir : string;
  commit : string;
}

(* ------------------------------------------------------------------ *)
(* Layer accounting for traced passes                                  *)

type layers = {
  mutable bind_s : float;
  mutable build_s : float;
  mutable probes : int;
  mutable probe_s : float;
  mutable plan_s : float;  (* inside plan_with, probes and verify included *)
  mutable verify_s : float;
  mutable exec_s : float;
  mutable work : int;
  mutable exec_words : float;
  mutable truth_s : float;
  mutable truth_subsets : int;
}

let new_layers () =
  {
    bind_s = 0.0;
    build_s = 0.0;
    probes = 0;
    probe_s = 0.0;
    plan_s = 0.0;
    verify_s = 0.0;
    exec_s = 0.0;
    work = 0;
    exec_words = 0.0;
    truth_s = 0.0;
    truth_subsets = 0;
  }

let add_time layers field f =
  match layers with
  | None -> f ()
  | Some l ->
      let r, t = M.timed f in
      field l t;
      r

let bind ?layers pipe name sql =
  add_time layers (fun l t -> l.bind_s <- l.bind_s +. t) (fun () ->
      P.bind pipe ~name sql)

let pg_model = Core.Registry.find_exn Core.Registry.cost_models "PostgreSQL"
let cmm_model = Core.Registry.find_exn Core.Registry.cost_models "Cmm"

(* One estimator lookup plus one [plan_with] call. Traced, the
   estimator's [subset] is wrapped to count and time probes; the wrapper
   keeps the estimator's name, so the plan-cache key and the plan are
   those of the untraced call. The chosen plan is then sanitized once
   more to time the verify layer, which [plan_with] runs inside. *)
let plan_call ?layers ?enumerator pipe (q : P.query) ~estimator ~model =
  match layers with
  | None ->
      let est = P.estimator pipe q estimator in
      let plan, cost = P.plan_with pipe q ~est ~model ?enumerator () in
      { P.plan; estimated_cost = cost; estimator = est; cost_model = model }
  | Some l ->
      let est, tb = M.timed (fun () -> P.estimator pipe q estimator) in
      l.build_s <- l.build_s +. tb;
      let inner = est.Cardest.Estimator.subset in
      let subset s =
        let t0 = M.now () in
        let v = inner s in
        l.probe_s <- l.probe_s +. (M.now () -. t0);
        l.probes <- l.probes + 1;
        v
      in
      let (plan, cost), tp =
        M.timed (fun () ->
            P.plan_with pipe q
              ~est:{ est with Cardest.Estimator.subset }
              ~model ?enumerator ())
      in
      l.plan_s <- l.plan_s +. tp;
      let (), tv =
        M.timed (fun () -> Verify.ensure_plan ~what:q.P.name q.P.graph plan)
      in
      l.verify_s <- l.verify_s +. tv;
      { P.plan; estimated_cost = cost; estimator = est; cost_model = model }

(* ------------------------------------------------------------------ *)
(* Answer checks                                                       *)

type verdict = Ok_answer | Timed_out | Wrong of string

let check_answer refs name ~rows ~timed_out ~mins =
  if timed_out then Timed_out
  else
    match Hashtbl.find_opt refs name with
    | None -> Wrong "no reference answer"
    | Some (a : Refs.answer) when a.Refs.rows = rows && a.Refs.mins = mins ->
        Ok_answer
    | Some a ->
        Wrong
          (Printf.sprintf "rows %d (want %d), MINs [%s] (want [%s])" rows
             a.Refs.rows (String.concat "; " mins)
             (String.concat "; " a.Refs.mins))

(* Counts attempted and failed operations. An operation fails when it
   raises or its answer is wrong; a timeout is an expected outcome. *)
type tally = { mutable attempted : int; mutable failed : int; mutable timeouts : int }

let new_tally () = { attempted = 0; failed = 0; timeouts = 0 }

let fail tally what msg =
  tally.failed <- tally.failed + 1;
  Printf.eprintf "FAILED %s: %s\n%!" what msg

let attempt tally what f =
  tally.attempted <- tally.attempted + 1;
  match f () with
  | () -> ()
  | exception e -> fail tally what (Printexc.to_string e)

(* A traced run makes two passes; both count towards correctness. *)
let absorb (into : tally) (t : tally) =
  into.attempted <- into.attempted + t.attempted;
  into.failed <- into.failed + t.failed

let verdict tally what = function
  | Ok_answer -> ()
  | Timed_out -> tally.timeouts <- tally.timeouts + 1
  | Wrong msg -> fail tally what msg

let corrupt_one refs name =
  match Hashtbl.find_opt refs name with
  | Some (a : Refs.answer) -> Hashtbl.replace refs name { a with Refs.rows = a.Refs.rows + 1 }
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)

type setup = {
  pipe : P.t;
  generate_s : float;
  catalog : Serve.Engine.catalog_entry array;  (* serve-zipf only *)
  plan_ms : float list;  (* serve-zipf: cold catalog planning *)
  plan_s : float;  (* their total *)
}

let total_s ms = List.fold_left ( +. ) 0.0 ms /. 1000.0

let new_pipeline db =
  Storage.Database.set_index_config db Storage.Database.Pk_only;
  P.create db

let statements =
  Array.of_list
    (List.map (fun (j : Workload.Job.query) -> (j.Workload.Job.name, j.Workload.Job.sql)) Workload.Job.all)

(* The serving catalog: each statement bound and planned in catalog
   order (the calls [Serve.Engine.prepare] makes, timed one by one),
   then handed to [prepare], which finds every plan cached. *)
let prepare_catalog ?layers pipe =
  let plan_ms =
    Array.to_list
      (Array.map
         (fun (name, sql) ->
           let q = bind ?layers pipe name sql in
           let _, t =
             M.timed (fun () ->
                 plan_call ?layers pipe q ~estimator:"PostgreSQL" ~model:pg_model)
           in
           1000.0 *. t)
         statements)
  in
  (Serve.Engine.prepare pipe ~estimator:"PostgreSQL" ~cost_model:"PostgreSQL" statements, plan_ms)

let setup ?layers ~serve ~scale () =
  let db, generate_s =
    M.timed (fun () -> Datagen.Imdb_gen.generate ~seed:data_seed ~scale ())
  in
  let pipe = new_pipeline db in
  let catalog, plan_ms = if serve then prepare_catalog ?layers pipe else ([||], []) in
  { pipe; generate_s; catalog; plan_ms; plan_s = total_s plan_ms }

(* Set up [times] times and keep the last state, with the planning
   samples of every round and the median round's planning total;
   setup_s is the median. Each discarded state is collected before the
   next is built. *)
let repeated_setup ~times make =
  let rec go k times_s plan_ms plan_s =
    Gc.compact ();
    let s, t = M.timed make in
    let plan_ms = s.plan_ms @ plan_ms and plan_s = s.plan_s :: plan_s in
    if k <= 1 then ({ s with plan_ms; plan_s = M.median plan_s }, M.median (t :: times_s))
    else go (k - 1) (t :: times_s) plan_ms plan_s
  in
  go times [] [] []

(* ------------------------------------------------------------------ *)
(* Passes                                                              *)

type pass = {
  pass_s : float;
  ops : int;  (* queries or requests completed in the pass *)
  query_ms : float array;
  plan_ms : float list;
  plan_s : float;
  tally : tally;
  details : (string * M.value) list list;
}

(* job-exec / job-morsel: each query bound, planned and executed in
   catalog order. *)
let job_pass ?layers ?pool pipe refs =
  let tally = new_tally () in
  let n = List.length Workload.Job.all in
  let query_ms = Array.make n 0.0 and plan_ms = ref [] and details = ref [] in
  let t0 = M.now () in
  List.iteri
    (fun i (j : Workload.Job.query) ->
      let name = j.Workload.Job.name in
      let q0 = M.now () in
      attempt tally name (fun () ->
          let q = bind ?layers pipe name j.Workload.Job.sql in
          let choice, tp =
            M.timed (fun () ->
                plan_call ?layers pipe q ~estimator:"PostgreSQL" ~model:pg_model)
          in
          plan_ms := (1000.0 *. tp) :: !plan_ms;
          let w0 = Gc.minor_words () in
          let r, te = M.timed (fun () -> Core.Session.run pipe ?pool q choice) in
          let words = Gc.minor_words () -. w0 in
          let work = r.Exec.Executor.work in
          Option.iter
            (fun l ->
              l.exec_s <- l.exec_s +. te;
              l.exec_words <- l.exec_words +. words;
              l.work <- l.work + work)
            layers;
          if layers <> None then
            details :=
              [
                ("query", M.S name);
                ("plan_ms", M.F (1000.0 *. tp));
                ("exec_ms", M.F (1000.0 *. te));
                ("work_units", M.I work);
                ("ns_per_work_unit", M.F (1e9 *. te /. float_of_int (max 1 work)));
                ("minor_words", M.F words);
                ("timed_out", M.B r.Exec.Executor.timed_out);
              ]
              :: !details;
          verdict tally name
            (check_answer refs name ~rows:r.Exec.Executor.rows
               ~timed_out:r.Exec.Executor.timed_out
               ~mins:(List.map Storage.Value.to_string r.Exec.Executor.mins)));
      query_ms.(i) <- 1000.0 *. (M.now () -. q0))
    Workload.Job.all;
  {
    pass_s = M.now () -. t0;
    ops = n;
    query_ms;
    plan_ms = !plan_ms;
    plan_s = total_s !plan_ms;
    tally;
    details = List.rev !details;
  }

let estimators = [ "PostgreSQL"; "DBMS A"; "DBMS B"; "DBMS C"; "HyPer" ]

let table3_enumerators =
  [
    ("DP", Core.Registry.Exhaustive_dp);
    ("GOO", Core.Registry.Greedy_operator_ordering);
    ("Quickpick-1000", Core.Registry.Quickpick 1000);
  ]

let close_to ~want got = Float.abs (got -. want) <= 1e-9 *. Float.abs want

(* job-optimize: every query planned under each of the five systems'
   estimates (DP, PostgreSQL cost model), then its exact cardinalities,
   then DP / GOO / Quickpick-1000 over true cardinalities under Cmm. *)
let optimize_pass ?layers pipe (optimum : (string, Refs.optimum) Hashtbl.t) =
  let tally = new_tally () in
  let jobs = Array.of_list Workload.Job.all in
  let n = Array.length jobs in
  let query_ms = Array.make n 0.0 and plan_ms = ref [] and details = ref [] in
  let dp_cost = Array.make n Float.nan in
  let query i = bind ?layers pipe jobs.(i).Workload.Job.name jobs.(i).Workload.Job.sql in
  let op i what f =
    let name = jobs.(i).Workload.Job.name in
    let t0 = M.now () in
    attempt tally (name ^ " " ^ what) (fun () -> f name (query i));
    let ms = 1000.0 *. (M.now () -. t0) in
    query_ms.(i) <- query_ms.(i) +. ms;
    ms
  in
  let plan_op i what f =
    let ms = op i what f in
    plan_ms := ms :: !plan_ms;
    if layers <> None then
      details :=
        [ ("query", M.S jobs.(i).Workload.Job.name); ("plan", M.S what); ("plan_ms", M.F ms) ]
        :: !details
  in
  let t0 = M.now () in
  List.iter
    (fun estimator ->
      for i = 0 to n - 1 do
        plan_op i estimator (fun name q ->
            let c = plan_call ?layers pipe q ~estimator ~model:pg_model in
            let cost = c.P.estimated_cost in
            if not (Float.is_finite cost && cost > 0.0) then
              fail tally (name ^ " " ^ estimator) (Printf.sprintf "plan cost %g" cost))
      done)
    estimators;
  for i = 0 to n - 1 do
    ignore
      (op i "truth" (fun name q ->
           let truth =
             add_time layers (fun l t -> l.truth_s <- l.truth_s +. t) (fun () ->
                 P.truth pipe q)
           in
           Option.iter
             (fun l -> l.truth_subsets <- l.truth_subsets + Cardest.True_card.subset_count truth)
             layers;
           let card = Cardest.True_card.card truth (Query.Query_graph.full_set q.P.graph) in
           match Hashtbl.find_opt optimum name with
           | Some r when close_to ~want:r.Refs.full_card card -> ()
           | Some r ->
               fail tally (name ^ " truth")
                 (Printf.sprintf "full join %.17g (want %.17g)" card r.Refs.full_card)
           | None -> fail tally (name ^ " truth") "no reference"))
  done;
  List.iter
    (fun (label, enumerator) ->
      for i = 0 to n - 1 do
        plan_op i ("true/" ^ label) (fun name q ->
            let c =
              plan_call ?layers ~enumerator pipe q ~estimator:"true" ~model:cmm_model
            in
            let cost = c.P.estimated_cost in
            let bad msg = fail tally (name ^ " " ^ label) msg in
            match enumerator with
            | Core.Registry.Exhaustive_dp -> (
                dp_cost.(i) <- cost;
                match Hashtbl.find_opt optimum name with
                | Some r when close_to ~want:r.Refs.dp_cost cost -> ()
                | Some r -> bad (Printf.sprintf "DP optimum %.17g (want %.17g)" cost r.Refs.dp_cost)
                | None -> bad "no reference")
            | _ ->
                (* DP's optimum bounds every heuristic from below. *)
                if Float.is_nan dp_cost.(i) || cost < dp_cost.(i) *. (1.0 -. 1e-9) then
                  bad (Printf.sprintf "cost %.17g below the DP optimum %.17g" cost dp_cost.(i)))
      done)
    table3_enumerators;
  {
    pass_s = M.now () -. t0;
    ops = n;
    query_ms;
    plan_ms = !plan_ms;
    plan_s = total_s !plan_ms;
    tally;
    details = List.rev !details;
  }

(* serve-zipf traffic: [requests] requests apportioned over the
   statements by their Zipf(1.1) probability (largest remainder), ranks
   mapped to statements by the popularity order `jobench serve --seed
   42` uses, shuffled by the workload seed and dealt round-robin to the
   client sessions. Every seed thus serves the same request mix in a
   different order; drawing the mix independently per seed instead moves
   the pass time by a quarter between seeds, because a timed-out query
   drawn once more or less costs seconds. *)
let traffic ~seed ~requests =
  let n = Array.length statements in
  let pinned =
    (Serve.Traffic.generate ~sessions:1 ~total:0 ~catalog:n ~theta:zipf_theta
       ~think_ms:0.0 ~seed:data_seed)
      .Serve.Traffic.rank_of
  in
  let query_at_rank = Array.make n 0 in
  Array.iteri (fun q rank -> query_at_rank.(rank) <- q) pinned;
  let zipf = Util.Zipf.create ~n ~theta:zipf_theta in
  let share = Array.init n (fun r -> float_of_int requests *. Util.Zipf.pmf zipf r) in
  let count = Array.map truncate share in
  let by_remainder = Array.init n Fun.id in
  Array.stable_sort
    (fun a b -> compare (share.(b) -. float_of_int count.(b)) (share.(a) -. float_of_int count.(a)))
    by_remainder;
  for i = 0 to requests - Array.fold_left ( + ) 0 count - 1 do
    let r = by_remainder.(i) in
    count.(r) <- count.(r) + 1
  done;
  let mix = Array.concat (List.init n (fun r -> Array.make count.(r) query_at_rank.(r))) in
  Util.Prng.shuffle (Util.Prng.create seed) mix;
  let script s =
    Array.init ((requests - s + domains - 1) / domains) (fun i ->
        { Serve.Traffic.r_seq = i; r_query = mix.((i * domains) + s); r_think_ms = 0.0 })
  in
  { Serve.Traffic.scripts = Array.init domains script; rank_of = pinned }

type served = { pass : pass; outcome : Serve.Engine.outcome; cache : Exec.Join_cache.stats }

let serve_pass ~pool (s : setup) refs traffic =
  let cache = Exec.Join_cache.create ~budget_bytes:Exec.Join_cache.default_budget_bytes () in
  let cfg =
    {
      Serve.Engine.engine = Exec.Engine_config.robust;
      cache = Some cache;
      exec_pool = None;
      serve_pool = Some pool;
      max_inflight = domains;
      session_budget = 0;
    }
  in
  let outcome, wall = M.timed (fun () -> Serve.Engine.run s.pipe s.catalog traffic cfg) in
  let tally = new_tally () in
  Array.iter
    (Array.iter (fun (r : Serve.Engine.reply) ->
         let name = s.catalog.(r.Serve.Engine.p_query).Serve.Engine.ce_name in
         tally.attempted <- tally.attempted + 1;
         verdict tally name
           (check_answer refs name ~rows:r.Serve.Engine.p_rows
              ~timed_out:r.Serve.Engine.p_timed_out ~mins:r.Serve.Engine.p_mins)))
    outcome.Serve.Engine.replies;
  let missing = outcome.Serve.Engine.issued - outcome.Serve.Engine.completed in
  tally.attempted <- tally.attempted + missing;
  if missing > 0 then fail tally "serve" (Printf.sprintf "%d requests not completed" missing);
  {
    pass =
      {
        pass_s = wall;
        ops = outcome.Serve.Engine.completed;
        query_ms = outcome.Serve.Engine.latencies_ms;
        plan_ms = s.plan_ms;
        plan_s = s.plan_s;
        tally;
        details = [];
      };
    outcome;
    cache = Exec.Join_cache.stats cache;
  }

(* job-optimize's plan_s: one planning total is a few seconds of
   pointer-chasing work and moved by a quarter between runs on a shared
   2-core VM, so the pass is followed by planning-only rounds on fresh
   pipelines (cold ANALYZE, estimators and plan cache; the exact
   cardinalities are shared, so their stage is a lookup). Rounds run
   until [seconds] have gone by since [started], and at least
   [min_replans] of them; plan_s is the median total over the pass and
   every round. Every round's answers are checked like the pass's. *)
let replan_rounds ~seconds ~started (replan : unit -> pass) (first : pass) =
  let rec go k acc =
    if k >= min_replans && M.now () -. started >= float_of_int seconds then List.rev acc
    else begin
      Gc.compact ();
      go (k + 1) (replan () :: acc)
    end
  in
  let rounds = go 0 [] in
  let tally = new_tally () in
  List.iter (fun p -> absorb tally p.tally) (first :: rounds);
  tally.timeouts <- first.tally.timeouts;
  let totals = List.map (fun p -> p.plan_s) (first :: rounds) in
  print_endline
    ("replan "
    ^ M.json_object
        [
          ("samples", M.I (List.length totals));
          ("plan_s", M.S (String.concat " " (List.map (Printf.sprintf "%.4f") totals)));
        ]);
  { first with plan_s = M.median totals; tally }

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let qps p = float_of_int p.ops /. p.pass_s

(* The gated end-to-end metrics. [plan_s] sums the planning calls that
   [plan_ms.*] samples: a total over the whole pass moves with the
   machine's speed like [pass_s] does, where a single order statistic
   moves more. On job-optimize it is the median of such totals (see
   [replan_rounds]). *)
let end_to_end ~setup_s (p : pass) =
  [
    M.metric "setup_s" "s" setup_s;
    M.metric "pass_s" "s" p.pass_s;
    M.metric "qps" "1/s" (qps p);
    M.metric "plan_s" "s" p.plan_s;
  ]

(* Printed beside the gated metrics but left out of the result: on a
   2-core shared VM their spread over ten runs came within 0.05 of the
   largest bound the benchmark may set, 0.25, or passed it (query_ms.p50
   0.22 and query_ms.p90 0.21 on serve-zipf, plan_ms.p50 0.17 and
   plan_ms.p90 0.26 on job-exec, peak_rss_mb 0.21 on job-morsel, where
   two domains' GC timing sets the peak). *)
let ungated (p : pass) =
  let plan = Array.of_list p.plan_ms in
  [
    M.metric "query_ms.p50" "ms" (M.percentile p.query_ms 0.5);
    M.metric "query_ms.p90" "ms" (M.percentile p.query_ms 0.9);
    M.metric "plan_ms.p50" "ms" (M.percentile plan 0.5);
    M.metric "plan_ms.p90" "ms" (M.percentile plan 0.9);
    M.metric "peak_rss_mb" "MB" (M.peak_rss_mb ());
  ]

type extra = {
  generate_s : float;
  catalog_mb : float;
  prepare_s : float;
  analyze_ms : float;
  plans_enumerated : int;
  morsel : Exec.Morsel.stats;
  peak_rss_mb : float;  (* after the untraced pass *)
  cache : Exec.Join_cache.stats option;
  admission : Serve.Admission.stats option;
  busy_frac : float;
  proc : M.proc;
  overhead : float;
}

let per_layer (l : layers) (p : pass) (x : extra) =
  let ms s = 1000.0 *. s and fi = float_of_int in
  let per a b = if b = 0 then 0.0 else a /. fi b in
  let ph = x.morsel.Exec.Morsel.st_phases in
  let cache f = match x.cache with Some c -> f c | None -> 0.0 in
  let adm f = match x.admission with Some a -> fi (f a) | None -> 0.0 in
  [
    M.metric "datagen.generate_s" "s" x.generate_s;
    M.metric "storage.catalog_mb" "MB" x.catalog_mb;
    M.metric "serve.prepare_s" "s" x.prepare_s;
    M.metric "sqlfront.bind_ms" "ms" (ms l.bind_s);
    M.metric "dbstats.analyze_ms" "ms" x.analyze_ms;
    M.metric "cardest.estimator_build_ms" "ms" (ms l.build_s);
    M.metric "cardest.probes" "count" (fi l.probes);
    M.metric "cardest.probe_ms" "ms" (ms l.probe_s);
    M.metric "cardest.truth_subsets" "count" (fi l.truth_subsets);
    M.metric "cardest.truth_us_per_subset" "us" (per (1e6 *. l.truth_s) l.truth_subsets);
    M.metric "planner.enumerate_ms" "ms" (ms (l.plan_s -. l.probe_s -. l.verify_s));
    M.metric "planner.plans_enumerated" "count" (fi x.plans_enumerated);
    M.metric "verify.ensure_ms" "ms" (ms l.verify_s);
    M.metric "exec.run_ms" "ms" (ms l.exec_s);
    M.metric "exec.work_units" "count" (fi l.work);
    M.metric "exec.ns_per_work_unit" "ns" (per (1e9 *. l.exec_s) l.work);
    M.metric "exec.minor_words_per_work_unit" "words" (per l.exec_words l.work);
    M.metric "exec.timeouts" "count" (fi p.tally.timeouts);
    M.metric "exec.morsel.phases" "count" (fi ph);
    M.metric "exec.morsel.stolen_frac" "frac"
      (per (fi x.morsel.Exec.Morsel.st_stolen) x.morsel.Exec.Morsel.st_dispatched);
    M.metric "exec.morsel.skew" "ratio" (if ph = 0 then 0.0 else x.morsel.Exec.Morsel.st_skew);
    M.metric "exec.join_cache.hit_rate" "frac" (cache Exec.Join_cache.hit_rate);
    M.metric "exec.join_cache.evictions" "count"
      (cache (fun c -> fi c.Exec.Join_cache.evictions));
    M.metric "exec.join_cache.bytes" "bytes" (cache (fun c -> fi c.Exec.Join_cache.bytes));
    M.metric "serve.admission_waits" "count" (adm (fun a -> a.Serve.Admission.waits));
    M.metric "serve.admission_peak" "count" (adm (fun a -> a.Serve.Admission.peak));
    M.metric "serve.busy_frac" "frac" x.busy_frac;
    M.metric "gc.minor_collections" "count" (fi x.proc.M.minor_gcs);
    M.metric "gc.major_collections" "count" (fi x.proc.M.major_gcs);
    M.metric "proc.cpu_s" "s" x.proc.M.user_s;
    M.metric "proc.sys_s" "s" x.proc.M.sys_s;
    M.metric "proc.peak_rss_mb" "MB" x.peak_rss_mb;
    M.metric "bench.trace_overhead_frac" "frac" x.overhead;
  ]

let catalog_mb db =
  let bytes = ref 0 in
  List.iter
    (fun name ->
      Array.iter
        (fun c -> bytes := !bytes + Storage.Column.byte_size c)
        (Storage.Table.columns (Storage.Database.find_table db name)))
    (Storage.Database.table_names db);
  float_of_int !bytes /. 1048576.0

(* A benchmark-owned ANALYZE over every table; the pipeline's instances
   are left untouched. *)
let analyze_ms db =
  let _, t =
    M.timed (fun () ->
        let a = Dbstats.Analyze.create db in
        List.iter (fun name -> ignore (Dbstats.Analyze.table a name)) (Storage.Database.table_names db))
  in
  1000.0 *. t

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)

let print_stamp o ~scale ~seeds ~regime =
  let g = Gc.get () in
  print_endline
    ("stamp "
    ^ M.json_object
        ([
           ("workload", M.S o.workload);
           ("commit", M.S o.commit);
           ("ocaml", M.S Sys.ocaml_version);
           ("nproc", M.I (Domain.recommended_domain_count ()));
           ("domains", M.I domains);
           ("scale", M.F scale);
           ("data_seed", M.I data_seed);
         ]
        @ seeds
        @ [
            ("gc_minor_heap_words", M.I g.Gc.minor_heap_size);
            ("gc_space_overhead", M.I g.Gc.space_overhead);
            ("regime", M.S regime);
            ("trace", M.B o.trace);
            ("smoke", M.B o.smoke);
            ( "caveat",
              M.S
                "2-core shared machine: other tenants add noise; no \
                 multicore speedup is claimed" );
          ]))

let print_table ~ungated metrics (t : tally) =
  let row note (m : M.metric) =
    Printf.printf "  %-34s %14.4f %s%s\n" m.M.name m.M.value m.M.unit note
  in
  List.iter (row "") metrics;
  List.iter (row "  (not gated)") ungated;
  Printf.printf "  %-34s %14.4f %s  (%d failed of %d attempted; %d timeouts)\n" "failed_frac"
    (float_of_int t.failed /. float_of_int (max 1 t.attempted))
    "frac" t.failed t.attempted t.timeouts

let finish ?(ungated = []) (p : pass) metrics =
  List.iter (fun d -> print_endline ("detail " ^ M.json_object d)) p.details;
  print_table ~ungated metrics p.tally;
  print_endline (M.result_line ~attempted:p.tally.attempted ~failed:p.tally.failed metrics)

let run o =
  let job_scale = if o.smoke then smoke_scale else scale_job in
  let opt_scale = if o.smoke then smoke_scale else scale_optimize in
  let setups = if o.smoke || o.trace then 1 else 3 in
  let job_seeds =
    [ ("workload_seed", M.I o.seed); ("seed_use", M.S "none: JOB data, statistics and order are fixed") ]
  in
  let load_job scale =
    Refs.load_job (Refs.file ~dir:o.refs_dir ~kind:"job" ~data_seed ~scale)
  in
  let with_pool f =
    Util.Domain_pool.tune_gc ();
    let pool = Util.Domain_pool.create ~domains in
    Fun.protect ~finally:(fun () -> Util.Domain_pool.shutdown pool) (fun () -> f pool)
  in
  (* Untraced pass on one state, then, when traced, a traced pass on a
     freshly built state: both start cold. *)
  let job ?replan ~scale ~regime ~seeds ~make ~pass ~times () =
    print_stamp o ~scale ~seeds ~regime;
    let state, setup_s = repeated_setup ~times make in
    let started = M.now () in
    let untraced = pass None state in
    let untraced =
      match replan with
      | Some f when not o.trace -> replan_rounds ~seconds:o.seconds ~started (f state) untraced
      | _ -> untraced
    in
    if not o.trace then finish ~ungated:(ungated untraced) untraced (end_to_end ~setup_s untraced)
    else begin
      let peak_rss_mb = M.peak_rss_mb () in
      Gc.compact ();
      let l = new_layers () in
      let fresh = make () in
      let stats0 = P.stats fresh.pipe in
      Exec.Morsel.reset_stats ();
      let p0 = M.proc () in
      let traced = pass (Some l) fresh in
      let proc = M.proc_diff p0 (M.proc ()) in
      let db = P.db fresh.pipe in
      let x =
        {
          generate_s = fresh.generate_s;
          catalog_mb = catalog_mb db;
          prepare_s = 0.0;
          peak_rss_mb;
          analyze_ms = analyze_ms db;
          plans_enumerated = (P.stats fresh.pipe).P.plans_enumerated - stats0.P.plans_enumerated;
          morsel = Exec.Morsel.stats ();
          cache = None;
          admission = None;
          busy_frac = 0.0;
          proc;
          overhead = (traced.pass_s /. untraced.pass_s) -. 1.0;
        }
      in
      absorb traced.tally untraced.tally;
      finish traced (per_layer l traced x)
    end
  in
  match o.workload with
  | ("job-exec" | "job-morsel") as w ->
      let refs = load_job job_scale in
      if o.corrupt then corrupt_one refs "1a";
      let make () = setup ~serve:false ~scale:job_scale () in
      if w = "job-exec" then
        job ~scale:job_scale ~regime:"cold: first pass after set-up" ~seeds:job_seeds ~make ~times:setups
          ~pass:(fun layers s -> job_pass ?layers s.pipe refs) ()
      else
        with_pool (fun pool ->
            job ~scale:job_scale ~regime:"cold: first pass after set-up" ~seeds:job_seeds ~make
              ~times:setups
              ~pass:(fun layers s -> job_pass ?layers ~pool s.pipe refs) ())
  | "job-optimize" ->
      let optimum =
        Refs.load_optimum (Refs.file ~dir:o.refs_dir ~kind:"optimum" ~data_seed ~scale:opt_scale)
      in
      (if o.corrupt then
         match Hashtbl.find_opt optimum "1a" with
         | Some r -> Hashtbl.replace optimum "1a" { r with Refs.full_card = r.Refs.full_card +. 1.0 }
         | None -> ());
      let make () = setup ~serve:false ~scale:opt_scale () in
      job ~scale:opt_scale ~regime:"cold: first pass after set-up, no execution" ~seeds:job_seeds ~make
        ~times:(if o.smoke || o.trace then 1 else 9)
        ~pass:(fun layers s -> optimize_pass ?layers s.pipe optimum)
        ~replan:(fun s () ->
          (* Cold again (ANALYZE, estimators, plan cache) but for the
             exact cardinalities, which the pass computed once. *)
          let pipe = { (new_pipeline (P.db s.pipe)) with P.truths = s.pipe.P.truths } in
          optimize_pass pipe optimum)
        ()
  | "serve-zipf" ->
      let refs = load_job job_scale in
      let requests = if o.smoke then 4 * o.seconds else 10 * o.seconds in
      let tr = traffic ~seed:o.seed ~requests in
      (* Corrupt the most popular statement's answer: surely requested. *)
      if o.corrupt then
        Array.iteri
          (fun q rank -> if rank = 0 then corrupt_one refs (fst statements.(q)))
          tr.Serve.Traffic.rank_of;
      with_pool (fun pool ->
          print_stamp o ~scale:job_scale
            ~seeds:[ ("traffic_seed", M.I o.seed); ("requests", M.I requests); ("clients", M.I domains) ]
            ~regime:"warm: catalog prepared during set-up; join cache starts empty";
          let make () = setup ~serve:true ~scale:job_scale () in
          let state, setup_s = repeated_setup ~times:setups make in
          let untraced = serve_pass ~pool state refs tr in
          if not o.trace then
            finish ~ungated:(ungated untraced.pass) untraced.pass
              (end_to_end ~setup_s untraced.pass)
          else begin
            let peak_rss_mb = M.peak_rss_mb () in
            Gc.compact ();
            let l = new_layers () in
            let fresh, prepare_s =
              M.timed (fun () -> setup ~layers:l ~serve:true ~scale:job_scale ())
            in
            let prepare_s = prepare_s -. fresh.generate_s in
            let enumerated = (P.stats fresh.pipe).P.plans_enumerated in
            let p0 = M.proc () in
            let w0 = Gc.minor_words () in
            let traced = serve_pass ~pool fresh refs tr in
            let proc = M.proc_diff p0 (M.proc ()) in
            let o' = traced.outcome in
            l.exec_s <- Array.fold_left ( +. ) 0.0 o'.Serve.Engine.latencies_ms /. 1000.0;
            l.exec_words <- Gc.minor_words () -. w0;
            Array.iter
              (Array.iter (fun (r : Serve.Engine.reply) -> l.work <- l.work + r.Serve.Engine.p_work))
              o'.Serve.Engine.replies;
            let db = P.db fresh.pipe in
            let x =
              {
                generate_s = fresh.generate_s;
                catalog_mb = catalog_mb db;
                prepare_s;
                peak_rss_mb;
                analyze_ms = analyze_ms db;
                plans_enumerated = enumerated;
                morsel = Exec.Morsel.stats ();
                cache = Some traced.cache;
                admission = Some o'.Serve.Engine.admission;
                busy_frac =
                  (proc.M.user_s +. proc.M.sys_s)
                  /. (traced.pass.pass_s *. float_of_int domains);
                proc;
                overhead = (qps untraced.pass /. qps traced.pass) -. 1.0;
              }
            in
            absorb traced.pass.tally untraced.pass.tally;
            finish traced.pass (per_layer l traced.pass x)
          end)
  | w ->
      Printf.eprintf "unknown workload %S (job-exec, job-morsel, job-optimize, serve-zipf)\n" w;
      exit 2

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 30 and trace = ref 0 in
  let smoke = ref false and corrupt = ref false in
  let refs_dir = ref "perfbench/refs" and commit = ref "unknown" in
  let write_refs = ref "" and scale = ref scale_job in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "W  job-exec | job-morsel | job-optimize | serve-zipf");
      ("--seed", Arg.Set_int seed, "N  workload seed (default 42)");
      ("--seconds", Arg.Set_int seconds, "S  nominal run length; serve-zipf issues 10*S requests");
      ("--trace", Arg.Set_int trace, "0|1  1 = report the per-layer split of a traced pass");
      ("--smoke", Arg.Set smoke, " tiny scale, for the benchmark's own tests");
      ("--corrupt-ref", Arg.Set corrupt, " falsify one reference answer (the checks must fail)");
      ("--refs", Arg.Set_string refs_dir, "DIR  committed reference answers");
      ("--commit", Arg.Set_string commit, "ID  source revision, for the stamp");
      ("--write-refs", Arg.Set_string write_refs, "KIND  job | optimum: write references and exit");
      ("--scale", Arg.Set_float scale, "S  scale for --write-refs");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perfbench";
  match !write_refs with
  | "job" -> Refs.write_job ~dir:!refs_dir ~data_seed ~scale:!scale
  | "optimum" -> Refs.write_optimum ~dir:!refs_dir ~data_seed ~scale:!scale
  | "" ->
      if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace takes 0 or 1"; exit 2);
      if !seconds < 1 then (prerr_endline "--seconds must be >= 1"; exit 2);
      run
        {
          workload = !workload;
          seed = !seed;
          seconds = !seconds;
          trace = !trace = 1;
          smoke = !smoke;
          corrupt = !corrupt;
          refs_dir = !refs_dir;
          commit = !commit;
        }
  | k ->
      Printf.eprintf "unknown --write-refs kind %S\n" k;
      exit 2
