(* The concurrent query-serving engine behind [jobench serve].

   N simulated client sessions replay pregenerated request scripts
   ({!Traffic}) against one shared {!Core.Session} (= registry
   pipeline): binding goes through the pipeline's bind cache, planning
   through its plan cache, and execution through the morsel executor
   with an optional shared {!Exec.Join_cache} recycling join builds
   across queries and sessions.

   Concurrency model: session indices are handed out by a work-stealing
   cursor ({!Exec.Morsel.cursor}) to the serve pool's workers; each
   claimed session runs its script to completion in seq order. A
   worker-count-independent replies guarantee falls out of the layers
   below: scripts are pregenerated, binding/planning are memoized pure
   computations, and execution is byte-identical serial vs morsel vs
   recycled (the executor's determinism guarantees) — so only measured
   wall-clock latency depends on scheduling. {!Admission} bounds
   globally in-flight queries; a per-session work budget retires
   sessions deterministically (simulated work is itself deterministic).

   Every mutable serving artifact (per-session reply/latency stores,
   executed counters) is either owned by exactly one worker (arrays
   indexed by the claimed session) or published only after the pool
   joins — no locks beyond admission's. *)

type reply = {
  p_query : int;  (* catalog index *)
  p_rows : int;
  p_work : int;
  p_timed_out : bool;
  p_mins : string list;
}

type config = {
  engine : Exec.Engine_config.t;
  cache : Exec.Join_cache.t option;
  exec_pool : Util.Domain_pool.t option;  (* intra-query morsels *)
  serve_pool : Util.Domain_pool.t option;  (* inter-query concurrency *)
  max_inflight : int;
  session_budget : int;  (* work units per session; 0 = unlimited *)
}

type outcome = {
  replies : reply array array;  (* per session, in script order *)
  latencies_ms : float array;  (* all completed requests, unordered *)
  wall_s : float;
  completed : int;
  issued : int;
  retired_sessions : int;  (* stopped early by the work budget *)
  admission : Admission.stats;
}

type catalog_entry = {
  ce_name : string;
  ce_query : Core.Session.query;
  ce_choice : Core.Session.plan_choice;
}

(* Per-request observability: a trace span covering admission wait plus
   execution (a = catalog index, b = simulated work), and a registered
   latency histogram in microseconds. Neither affects replies — only
   measured wall time was ever scheduling-dependent. *)
let ph_request = Obs.Trace.intern "serve.request"
let request_us = Obs.Metrics.histogram "serve.request_us"

let prepare pipe ?estimator ?cost_model statements =
  Array.map
    (fun (name, sql) ->
      let q = Core.Session.sql pipe ~name sql in
      let choice = Core.Session.optimize pipe ?estimator ?cost_model q in
      { ce_name = name; ce_query = q; ce_choice = choice })
    statements

let run pipe (catalog : catalog_entry array) (traffic : Traffic.t) cfg =
  if cfg.max_inflight < 1 then
    invalid_arg "Engine.run: max_inflight must be >= 1";
  let nsessions = Traffic.sessions traffic in
  let adm = Admission.create ~limit:cfg.max_inflight in
  let reply_store =
    Array.map
      (fun script ->
        Array.make (Array.length script)
          { p_query = -1; p_rows = 0; p_work = 0; p_timed_out = false; p_mins = [] })
      traffic.Traffic.scripts
  in
  let lat_store =
    Array.map (fun script -> Array.make (Array.length script) 0.0)
      traffic.Traffic.scripts
  in
  let executed = Array.make nsessions 0 in
  let retired = Array.make nsessions false in
  let run_session s =
    let script = traffic.Traffic.scripts.(s) in
    let out = reply_store.(s) and lat = lat_store.(s) in
    let n = Array.length script in
    let spent = ref 0 in
    let k = ref 0 in
    let stop = ref false in
    while (not !stop) && !k < n do
      let r = script.(!k) in
      if r.Traffic.r_think_ms > 0.0 then
        Unix.sleepf (r.Traffic.r_think_ms /. 1000.0);
      let t0 = Unix.gettimeofday () in
      let ts = Obs.Trace.start () in
      let entry = catalog.(r.Traffic.r_query) in
      let res =
        Admission.with_permit adm (fun () ->
            Core.Session.run pipe ~engine:cfg.engine ?pool:cfg.exec_pool
              ?cache:cfg.cache entry.ce_query entry.ce_choice)
      in
      Obs.Trace.span ph_request ~t0:ts ~a:r.Traffic.r_query
        ~b:res.Exec.Executor.work;
      let t1 = Unix.gettimeofday () in
      Obs.Metrics.Hist.observe request_us
        (int_of_float ((t1 -. t0) *. 1e6));
      out.(!k) <-
        {
          p_query = r.Traffic.r_query;
          p_rows = res.Exec.Executor.rows;
          p_work = res.Exec.Executor.work;
          p_timed_out = res.Exec.Executor.timed_out;
          p_mins = List.map Storage.Value.to_string res.Exec.Executor.mins;
        };
      lat.(!k) <- (t1 -. t0) *. 1000.0;
      incr k;
      if cfg.session_budget > 0 then begin
        spent := !spent + res.Exec.Executor.work;
        if !spent >= cfg.session_budget then begin
          stop := true;
          retired.(s) <- true
        end
      end
    done;
    executed.(s) <- !k
  in
  let cursor = Exec.Morsel.cursor nsessions in
  let worker _slot =
    let s = ref (Exec.Morsel.claim cursor) in
    while !s >= 0 do
      run_session !s;
      s := Exec.Morsel.claim cursor
    done
  in
  let t_start = Unix.gettimeofday () in
  (match cfg.serve_pool with
  | Some p when Util.Domain_pool.size p > 1 -> Util.Domain_pool.run_workers p worker
  | _ -> worker 0);
  let wall_s = Unix.gettimeofday () -. t_start in
  let replies =
    Array.init nsessions (fun s -> Array.sub reply_store.(s) 0 executed.(s))
  in
  let completed = Array.fold_left ( + ) 0 executed in
  let latencies_ms = Array.make completed 0.0 in
  let j = ref 0 in
  Array.iteri
    (fun s lat ->
      Array.blit lat 0 latencies_ms !j executed.(s);
      j := !j + executed.(s))
    lat_store;
  {
    replies;
    latencies_ms;
    wall_s;
    completed;
    issued = Traffic.total traffic;
    retired_sessions =
      Array.fold_left (fun n r -> if r then n + 1 else n) 0 retired;
    admission = Admission.stats adm;
  }

(* Byte-identity across arms: every field of every reply, including how
   far each session got before its budget retired it. *)
let replies_equal (a : reply array array) (b : reply array array) = a = b
