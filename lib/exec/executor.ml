module Bitset = Util.Bitset
module QG = Query.Query_graph

type result = {
  rows : int;
  work : int;
  runtime_ms : float;
  timed_out : bool;
  mins : Storage.Value.t list;
}

(* Test-only escape hatch: evaluate scan predicates with the original
   row-at-a-time closures instead of selection vectors. The cross-check
   test runs the full workload through both paths and asserts identical
   results; nothing in the library or the binaries sets this. *)
let reference_scan = Atomic.make false

exception Timeout = Kernel.Timeout

type batch = Kernel.batch = {
  rels : int array;
  slots : int array;
  width : int;
  mutable data : int array;
  mutable nrows : int;
}

let slot_of b rel =
  if rel >= Array.length b.slots || b.slots.(rel) < 0 then
    invalid_arg "Executor: relation not in batch"
  else b.slots.(rel)

let null = Storage.Value.null_code

let null_key = Kernel.null_key

(* Placeholder filling reader arrays before the per-edge closures land. *)
let no_reader : int -> int = fun _ -> null

(* Interned trace phases, resolved once at module init. With tracing
   disabled the per-node cost is one atomic load (Obs.Trace.start
   returning the 0 sentinel) plus an integer compare — the executor's
   hot path carries the instrumentation permanently. *)
let ph_exec = Obs.Trace.intern "exec"
let ph_scan = Obs.Trace.intern "exec.scan"
let ph_hash_join = Obs.Trace.intern "exec.hash_join"
let ph_merge_join = Obs.Trace.intern "exec.merge_join"
let ph_nl_join = Obs.Trace.intern "exec.nl_join"
let ph_index_nl_join = Obs.Trace.intern "exec.index_nl_join"

let phase_of (p : Plan.t) =
  match p.Plan.op with
  | Plan.Scan _ -> ph_scan
  | Plan.Join { algo = Plan.Hash_join; _ } -> ph_hash_join
  | Plan.Join { algo = Plan.Merge_join; _ } -> ph_merge_join
  | Plan.Join { algo = Plan.Nl_join; _ } -> ph_nl_join
  | Plan.Join { algo = Plan.Index_nl_join; _ } -> ph_index_nl_join

(* Per-slot scratch for morsel-parallel phases. A slot is owned by at
   most one running worker at a time ({!Util.Domain_pool.run_workers}'s
   contract), so nothing here is locked. [wout] is the slot's output
   sink: each claimed morsel appends its rows contiguously, and the
   caller stitches the segments back together in morsel-index order,
   which is what makes assembled batches bit-for-bit the batches the
   serial path builds. *)
type wstate = {
  wslot : int;
  mutable wout : batch;
  mutable wsel : int array; (* scan selection-vector scratch *)
  mutable wfill : (int array -> int -> int -> int) option;
      (* per-phase selector instance (owns mutable decode scratch) *)
  mutable wclaims : int; (* morsels claimed in the current phase *)
}

(* Growth of a worker's sink: never the run's scratch pool, which
   belongs to the calling domain, but the {!Reserve}, which any domain
   may use. The outgrown array goes straight back; the last one returns
   with the run's arrays. *)
let wout_grow b extra =
  let needed = (b.nrows + extra) * b.width in
  if needed > Array.length b.data then begin
    let bigger = Reserve.take (max needed (2 * Array.length b.data)) in
    Kernel.copy_ints b.data 0 bigger 0 (b.nrows * b.width);
    Reserve.give b.data;
    b.data <- bigger
  end

let run ~db ~graph ~config ~size_est ?observe ?pool ?cache ?(projections = [])
    plan =
  let work = ref 0 in
  let limit = config.Engine_config.work_limit in
  let row_limit = config.Engine_config.row_limit in
  let spend n =
    work := !work + n;
    if !work > limit then raise Timeout
  in
  (* Random-access code readers (the column layer is sealed; flat columns
     compile to a plain array load, packed ones to shift/mask). *)
  let column_data rel col =
    Storage.Column.reader (Storage.Table.column (QG.relation graph rel).QG.table col)
  in

  (* Scratch pool: int arrays retired by consumed intermediate batches
     (and key/selection buffers), reused for the next intermediate. A
     bushy plan stops reallocating its working set once the first few
     joins have sized it. Arrays are never zeroed on reuse — every
     consumer writes before it reads. Misses go to the {!Reserve}, and
     [owned] is every array the pool has taken from it, all given back
     when the run ends: no pool array escapes a run (results carry
     counts and MINs, observers see counts, the join cache copies its
     rows). *)
  let scratch = ref [] in
  let owned = ref [] in
  let pool_acquire min_len =
    let best =
      List.fold_left
        (fun best a ->
          let n = Array.length a in
          if n >= min_len && (best == [||] || n < Array.length best) then a
          else best)
        [||] !scratch
    in
    if best != [||] then begin
      scratch := List.filter (fun a -> a != best) !scratch;
      best
    end
    else begin
      let a = Reserve.take (max 1024 min_len) in
      owned := a :: !owned;
      a
    end
  in
  let pool_release a = if Array.length a >= 1024 then scratch := a :: !scratch in
  let retire b = pool_release b.data in

  let batch_create rels =
    let width = Array.length rels in
    (* Direct rel -> slot lookup built once per batch; [slot_of] runs per
       join-edge setup and per finish column, so no linear scans there. *)
    let max_rel = Array.fold_left max 0 rels in
    let slots = Array.make (max_rel + 1) (-1) in
    Array.iteri (fun i rel -> slots.(rel) <- i) rels;
    {
      rels;
      slots;
      width;
      data = pool_acquire (max 16 (width * 16));
      nrows = 0;
    }
  in
  (* Doubling growth, capped at the row budget while the cap suffices: a
     join trips once it holds [row_limit + 1] rows, so it never needs the
     next power of two past that. (Scans are not row-limited and may grow
     past the cap.) *)
  let batch_reserve b extra_rows =
    let needed = (b.nrows + extra_rows) * b.width in
    if needed > Array.length b.data then begin
      let doubled = 2 * Array.length b.data in
      let cap = (row_limit + 1) * b.width in
      let size =
        if needed > cap then max needed doubled else max needed (min doubled cap)
      in
      let bigger = pool_acquire size in
      Kernel.copy_ints b.data 0 bigger 0 (b.nrows * b.width);
      pool_release b.data;
      b.data <- bigger
    end
  in

  (* Join-key accessors per edge, preextracted into flat parallel arrays
     (slot and column data), so the per-row key loop touches no lists,
     no tuples, and no closures. *)
  let key_arrays batch side edges =
    let k = List.length edges in
    let slots = Array.make k 0 in
    let datas = Array.make k no_reader in
    List.iteri
      (fun idx (e : QG.edge) ->
        match side with
        | `Outer ->
            slots.(idx) <- slot_of batch e.QG.left;
            datas.(idx) <- column_data e.QG.left e.QG.left_col
        | `Inner ->
            slots.(idx) <- slot_of batch e.QG.right;
            datas.(idx) <- column_data e.QG.right e.QG.right_col)
      edges;
    (slots, datas)
  in

  let chunk = 4096 in

  (* ---------------- Phases: one body, serial or morsel-parallel -------

     A phase runs one body over input rows [0, n): the key hashing of a
     hash build, or — through [run_into], with an output sink — a scan's
     selector step, [Kernel.hash_probe] or [Kernel.index_probe]. Bodies
     return the work they charged.

     Serially, the calling domain feeds the body [chunk]-row ranges as
     slot 0, and the sink is the output batch itself. In parallel, the
     input is carved into [chunk]-row morsels handed out by an atomic
     cursor; each worker appends to its slot's sink and the caller
     reassembles the segments by morsel index, so batches — and
     therefore every downstream decision — are byte-identical to the
     serial path at any worker count.

     Accounting: probe bodies check [wbase + work > limit] after every
     outer row and the sink's row count against [rcap] after every
     emitted row; [phase] checks the running total after every range.
     A serial budget therefore trips on the running totals at most one
     outer row late, with the same fixed timeout result. A morsel's
     [wbase] is the work before the phase and its [rcap] is [row_limit]
     rows past its own start — lower bounds of the global totals, so a
     local trip is always a real one. At each morsel's end its work and
     rows fold into shared accumulators and the global totals are
     compared against the limits: the budget trips iff the serial run's
     would (totals are sums of order-independent per-morsel
     contributions). A worker that sees the budget blown raises
     {!Timeout}; the pool re-raises it here, and the top-level handler
     below turns it into the usual timeout result. *)
  let nworkers =
    match pool with
    | Some p when config.Engine_config.morsel_exec -> Util.Domain_pool.size p
    | _ -> 1
  in
  (* The pool to use for a phase over [n] input rows, if any. *)
  let par_pool n =
    if nworkers > 1 && n >= config.Engine_config.morsel_min_rows then pool
    else None
  in
  let workers =
    Util.Once.make (fun () ->
        Array.init nworkers (fun slot ->
            {
              wslot = slot;
              wout =
                { rels = [||]; slots = [||]; width = 1; data = [||]; nrows = 0 };
              wsel = [||];
              wfill = None;
              wclaims = 0;
            }))
  in
  let phase_work = Morsel.acc () in
  let phase_rows = Morsel.acc () in
  let run_phase p ~morsels ~body =
    Morsel.reset phase_work;
    Morsel.reset phase_rows;
    let ws = Util.Once.force workers in
    Array.iter (fun w -> w.wclaims <- 0) ws;
    let cur = Morsel.cursor morsels in
    let outcome =
      match
        Util.Domain_pool.run_workers p (fun slot ->
            let w = ws.(slot) in
            let m = ref (Morsel.claim cur) in
            while !m >= 0 do
              w.wclaims <- w.wclaims + 1;
              body w !m;
              m := Morsel.claim cur
            done)
      with
      | () -> None
      | exception e -> Some e
    in
    Morsel.note_phase (Array.map (fun w -> w.wclaims) ws);
    (* Fold the phase's work into the serial counter even on failure,
       so a non-timeout abort still reports what was spent. *)
    work := !work + Morsel.total phase_work;
    (match outcome with Some e -> raise e | None -> ());
    if !work > limit then raise Timeout
  in
  (* Run [body w ~wbase lo hi], which returns the work it charged, over
     input rows [0, n): serially on the calling domain (as slot 0) in
     [chunk]-row ranges, or morsel-parallel on [par]. *)
  let phase ?par n body =
    match par with
    | None ->
        let w = (Util.Once.force workers).(0) in
        let lo = ref 0 in
        while !lo < n do
          let hi = min n (!lo + chunk) in
          work := !work + body w ~wbase:!work !lo hi;
          if !work > limit then raise Timeout;
          lo := hi
        done
    | Some p ->
        let base = !work in
        run_phase p ~morsels:((n + chunk - 1) / chunk) ~body:(fun w m ->
            let lo = m * chunk in
            let t =
              Morsel.add phase_work (body w ~wbase:base lo (min n (lo + chunk)))
            in
            if base + t > limit then raise Timeout)
  in
  (* A phase producing rows into [out]. [rows_limited]: the output counts
     against [row_limit] (joins do, scans do not). *)
  let run_into ?(rows_limited = true) out n body =
    let ws = Util.Once.force workers in
    Array.iter (fun w -> w.wfill <- None) ws;
    match par_pool n with
    | None ->
        phase n (fun w ~wbase lo hi ->
            body w ~wbase ~rcap:row_limit ~sink:out ~grow:batch_reserve lo hi)
    | Some p ->
        Array.iter
          (fun w -> w.wout <- { out with data = w.wout.data; nrows = 0 })
          ws;
        let morsels = (n + chunk - 1) / chunk in
        let m_src = pool_acquire morsels
        and m_off = pool_acquire morsels
        and m_cnt = pool_acquire morsels in
        phase ~par:p n (fun w ~wbase lo hi ->
            let sink = w.wout in
            let start = sink.nrows in
            let wk =
              body w ~wbase ~rcap:(start + row_limit) ~sink ~grow:wout_grow lo hi
            in
            let m = lo / chunk and cnt = sink.nrows - start in
            m_src.(m) <- w.wslot;
            m_off.(m) <- start;
            m_cnt.(m) <- cnt;
            if rows_limited && cnt > 0 && Morsel.add phase_rows cnt > row_limit
            then raise Timeout;
            wk);
        (* Stitch the per-morsel segments into [out] in morsel-index
           order. *)
        let width = out.width in
        let total = ref 0 in
        for m = 0 to morsels - 1 do
          total := !total + m_cnt.(m)
        done;
        batch_reserve out !total;
        for m = 0 to morsels - 1 do
          let cnt = m_cnt.(m) in
          if cnt > 0 then begin
            Kernel.copy_ints ws.(m_src.(m)).wout.data (m_off.(m) * width)
              out.data (out.nrows * width) (cnt * width);
            out.nrows <- out.nrows + cnt
          end
        done;
        pool_release m_src;
        pool_release m_off;
        pool_release m_cnt
  in

  let scan rel =
    let relation = QG.relation graph rel in
    let table = relation.QG.table in
    let out = batch_create [| rel |] in
    let n = Storage.Table.row_count table in
    if Atomic.get reference_scan then begin
      (* Reference path: one closure call per row. *)
      let pred = Query.Predicate.compile table relation.QG.preds in
      let row = ref 0 in
      while !row < n do
        let stop = min n (!row + chunk) in
        spend (stop - !row);
        for r = !row to stop - 1 do
          if pred r then begin
            batch_reserve out 1;
            out.data.(out.nrows) <- r;
            out.nrows <- out.nrows + 1
          end
        done;
        row := stop
      done
    end
    else begin
      (* Vectorized path: fill a selection vector per chunk (one
         compaction pass per predicate atom), then append it whole.
         Each worker mints its own selector instance from a shared
         factory (dictionary bitmaps compiled once). *)
      let factory = Query.Predicate.selector_factory table relation.QG.preds in
      run_into ~rows_limited:false out n
        (fun w ~wbase:_ ~rcap:_ ~sink ~grow lo hi ->
          let fill =
            match w.wfill with
            | Some f -> f
            | None ->
                let f = factory () in
                w.wfill <- Some f;
                if Array.length w.wsel < chunk then w.wsel <- Array.make chunk 0;
                f
          in
          let cnt = fill w.wsel lo hi in
          grow sink cnt;
          Kernel.copy_ints w.wsel 0 sink.data sink.nrows cnt;
          sink.nrows <- sink.nrows + cnt;
          hi - lo)
    end;
    out
  in

  (* Hash-based matching shared by hash join and the nested-loop
     shortcut: returns the joined batch; [charge_hash] selects whether
     hash build/probe work is charged (the NL shortcut charges the
     quadratic pair count instead). Emitted rows are always charged, so
     materialized intermediates can never outgrow the work budget. *)
  let hash_match ~oset ~iset ~charge_hash ~table_size ?(retire_inner = true)
      ?prebuilt ?install outer inner =
    let edges = QG.edges_between graph oset iset in
    if edges = [] then invalid_arg "Executor: cross product";
    let oslots, odatas = key_arrays outer `Outer edges in
    let islots, idatas = key_arrays inner `Inner edges in
    let jt =
      match prebuilt with
      | Some jt ->
          (* Recycled sealed table (the caller already replayed the
             build's work charges): straight to the probe phase. *)
          jt
      | None ->
          let jt =
            Join_table.create
              ~bucket_floor:config.Engine_config.hash_bucket_floor
              ~estimated_rows:table_size ~actual_rows:inner.nrows
              ~resizable:config.Engine_config.resize_hash_tables ()
          in
          (* Build, two-phase: a key phase hashes every build row into a
             buffer (1 work unit per row, NULL keys included, matching
             the incremental path; in parallel, disjoint writes), the
             cheap append loop stays serial so entry order (hence payload
             numbering) is identical at any worker count, and one seal
             links chains in canonical ascending-payload order and
             charges the replayed resize bill. *)
          let n = inner.nrows in
          let kbuf = pool_acquire n in
          phase ?par:(par_pool n) n (fun _w ~wbase:_ lo hi ->
              for j = lo to hi - 1 do
                kbuf.(j) <- Kernel.tuple_key inner islots idatas j
              done;
              if charge_hash then hi - lo else 0);
          for j = 0 to n - 1 do
            let h = kbuf.(j) in
            if h <> null_key then Join_table.append jt ~hash:h ~payload:j
          done;
          pool_release kbuf;
          let seal_work = Join_table.seal jt in
          if charge_hash then spend seal_work;
          (* Publish to the recycling cache while the build batch is
             still alive: the row-id copy must happen before [retire]
             returns the batch's array to the scratch pool. *)
          (match install with
          | Some f ->
              f
                ~rows:(Array.sub inner.data 0 inner.nrows)
                ~nrows:inner.nrows ~table:jt ~seal_work
          | None -> ());
          jt
    in
    let out = batch_create (Array.append outer.rels inner.rels) in
    let probe =
      {
        Kernel.table = Join_table.view jt;
        outer;
        oslots;
        oreaders = odatas;
        inner;
        islots;
        ireaders = idatas;
        charge = charge_hash;
      }
    in
    run_into out outer.nrows (fun _w ~wbase ~rcap ~sink ~grow lo hi ->
        Kernel.hash_probe probe ~limit ~wbase ~rcap ~sink ~grow lo hi);
    retire outer;
    if retire_inner then retire inner;
    out
  in

  (* Sort-merge join: sort both inputs' tuple indexes by composite key
     hash (equal keys share a hash; real equality re-checked on match),
     then merge runs pairwise. Sorting is charged n log2 n comparisons. *)
  let merge_join ~oset ~iset outer inner =
    let edges = QG.edges_between graph oset iset in
    if edges = [] then invalid_arg "Executor: cross product";
    let oslots, odatas = key_arrays outer `Outer edges in
    let islots, idatas = key_arrays inner `Inner edges in
    (* Per-row keys land in a pooled buffer; the sorted side is a
       permutation of the non-NULL row ids ordered by (key, row) —
       exactly the order the former boxed (key, row) pair sort produced,
       without building a list or allocating a tuple per row. *)
    let sort_side batch slots datas =
      let nrows = batch.nrows in
      let keys = pool_acquire (max 1 nrows) in
      let m = ref 0 in
      for i = 0 to nrows - 1 do
        let h = Kernel.tuple_key batch slots datas i in
        keys.(i) <- h;
        if h <> null_key then incr m
      done;
      let idx = Array.make (max 1 !m) 0 in
      let k = ref 0 in
      for i = 0 to nrows - 1 do
        if keys.(i) <> null_key then begin
          idx.(!k) <- i;
          incr k
        end
      done;
      Array.sort
        (fun a b ->
          let c = Int.compare keys.(a) keys.(b) in
          if c <> 0 then c else Int.compare a b)
        idx;
      let n = float_of_int !m in
      let comparisons =
        if n <= 2.0 then n else n *. (Float.log n /. Float.log 2.0)
      in
      spend (int_of_float comparisons);
      (keys, idx, !m)
    in
    let okeys, oidx, no = sort_side outer oslots odatas in
    let ikeys, iidx, ni = sort_side inner islots idatas in
    let out = batch_create (Array.append outer.rels inner.rels) in
    let i = ref 0 and j = ref 0 in
    while !i < no && !j < ni do
      spend 1;
      let oh = okeys.(oidx.(!i)) and ih = ikeys.(iidx.(!j)) in
      if oh < ih then incr i
      else if oh > ih then incr j
      else begin
        (* Matching run: find the extent of equal hashes on both sides. *)
        let i_end = ref !i and j_end = ref !j in
        while !i_end < no && okeys.(oidx.(!i_end)) = oh do
          incr i_end
        done;
        while !j_end < ni && ikeys.(iidx.(!j_end)) = ih do
          incr j_end
        done;
        for a = !i to !i_end - 1 do
          for b = !j to !j_end - 1 do
            spend 1;
            let oi = oidx.(a) and ij = iidx.(b) in
            if Kernel.keys_equal outer oslots odatas oi inner islots idatas ij
            then begin
              Kernel.emit_pair out ~grow:batch_reserve outer oi inner ij;
              if out.nrows > row_limit then raise Timeout;
              spend Kernel.emit_cost
            end
          done
        done;
        i := !i_end;
        j := !j_end
      end
    done;
    pool_release okeys;
    pool_release ikeys;
    retire outer;
    retire inner;
    out
  in

  (* Checkpoint instrumentation: after a node's result is materialized,
     report its exact cardinality and the work spent so far. [observe]
     defaults to [None], in which case the hook is a single option match
     per plan node — no closure, no allocation. An Index_nl_join's inner
     scan is never materialized on its own, so it reports no checkpoint;
     the joined result does. Observer exceptions propagate to the caller
     (only {!Timeout} is caught below) — the re-optimization driver uses
     exactly that to abandon a doomed plan mid-flight. *)
  let checkpoint set (b : batch) =
    match observe with
    | None -> b
    | Some f ->
        f set ~rows:b.nrows ~work:!work;
        b
  in

  let rec eval (p : Plan.t) : batch =
    let t0 = Obs.Trace.start () in
    let b = eval_op p in
    (* Nested per-operator span: a join's interval includes its
       children's (the trace renders the tree); [a] is the node's exact
       cardinality, [b] the cumulative work when it materialized. *)
    Obs.Trace.span (phase_of p) ~t0 ~a:b.nrows ~b:!work;
    checkpoint p.Plan.set b

  and eval_op (p : Plan.t) : batch =
    match p.Plan.op with
    | Plan.Scan rel -> scan rel
    | Plan.Join { algo = Plan.Merge_join; outer = op; inner = ip } ->
        let ob = eval op in
        let ib = eval ip in
        merge_join ~oset:op.Plan.set ~iset:ip.Plan.set ob ib
    | Plan.Join { algo = Plan.Hash_join; outer = op; inner = ip } -> (
        (* The hash table is sized from the optimizer's estimate of the
           build (inner) side — the 9.4 pathology under underestimates. *)
        let table_size = size_est ip.Plan.set in
        (* Recycling applies only when the build side is a bare
           base-relation scan: then the sealed table plus the surviving
           row set is a pure function of (table, predicate, key columns,
           encodings, bucket sizing), all captured by the cache key. *)
        let cacheable =
          match (cache, ip.Plan.op) with
          | Some c, Plan.Scan rel ->
              let relation = QG.relation graph rel in
              let table = relation.QG.table in
              let edges = QG.edges_between graph op.Plan.set ip.Plan.set in
              let cols = List.map (fun (e : QG.edge) -> e.QG.right_col) edges in
              let key =
                Join_cache.make_key
                  ~table:(Storage.Table.name table)
                  ~table_rows:(Storage.Table.row_count table)
                  ~pred:(Join_cache.pred_digest relation.QG.preds)
                  ~cols
                  ~encoding:(Join_cache.encoding_fingerprint table)
                  ~buckets:
                    (Join_table.planned_buckets
                       ~bucket_floor:config.Engine_config.hash_bucket_floor
                       ~estimated_rows:table_size ())
                  ~resizable:config.Engine_config.resize_hash_tables
              in
              Some (c, key, rel, Storage.Table.row_count table)
          | _ -> None
        in
        match cacheable with
        | None ->
            let ob = eval op in
            let ib = eval ip in
            hash_match ~oset:op.Plan.set ~iset:ip.Plan.set ~charge_hash:true
              ~table_size ob ib
        | Some (c, key, rel, scan_rows) -> (
            match Join_cache.find c key with
            | Some entry ->
                (* Hit: skip the build-side scan and the hash build, but
                   replay their exact simulated-work charges and fire the
                   inner scan's checkpoint where the uncached path would
                   have — results, work, observer sequences, and timeout
                   behaviour stay byte-identical; only wall-clock drops. *)
                let ob = eval op in
                spend entry.Join_cache.e_scan_work;
                let slots = Array.make (rel + 1) (-1) in
                slots.(rel) <- 0;
                let ib =
                  {
                    rels = [| rel |];
                    slots;
                    width = 1;
                    data = entry.Join_cache.e_rows;
                    nrows = entry.Join_cache.e_nrows;
                  }
                in
                ignore (checkpoint ip.Plan.set ib);
                spend entry.Join_cache.e_build_work;
                spend entry.Join_cache.e_seal_work;
                (* [retire_inner:false]: the cached row array is shared
                   and must never enter the scratch pool. *)
                hash_match ~oset:op.Plan.set ~iset:ip.Plan.set
                  ~charge_hash:true ~table_size ~retire_inner:false
                  ~prebuilt:entry.Join_cache.e_table ob ib
            | None ->
                let ob = eval op in
                let ib = eval ip in
                hash_match ~oset:op.Plan.set ~iset:ip.Plan.set
                  ~charge_hash:true ~table_size
                  ~install:(fun ~rows ~nrows ~table ~seal_work ->
                    Join_cache.install c key ~rows ~nrows ~table
                      ~scan_work:scan_rows ~build_work:nrows ~seal_work)
                  ob ib))
    | Plan.Join { algo = Plan.Nl_join; outer = op; inner = ip } ->
        if not config.Engine_config.allow_nl_join then
          invalid_arg "Executor: nested-loop join disabled in this configuration";
        let ob = eval op in
        let ib = eval ip in
        (* Charge the quadratic pair count up front; compute the (equal)
           result hash-based so answers stay exact. *)
        spend (ob.nrows * ib.nrows);
        hash_match ~oset:op.Plan.set ~iset:ip.Plan.set ~charge_hash:false
          ~table_size:(float_of_int (max 16 ib.nrows))
          ob ib
    | Plan.Join { algo = Plan.Index_nl_join; outer = op; inner = ip } -> (
        match ip.Plan.op with
        | Plan.Join _ -> invalid_arg "Executor: index-NL inner must be base"
        | Plan.Scan inner_rel ->
            let ob = eval op in
            index_nl_join ~oset:op.Plan.set ob inner_rel)

  and index_nl_join ~oset ob inner_rel =
    let relation = QG.relation graph inner_rel in
    let table = relation.QG.table in
    let table_name = Storage.Table.name table in
    let pred = Query.Predicate.compile table relation.QG.preds in
    let edges = QG.edges_between graph oset (Bitset.singleton inner_rel) in
    (* Pick an indexed edge for the lookup; remaining edges are
       post-filters. *)
    let indexed_edge, index =
      let rec find = function
        | [] -> invalid_arg "Executor: index-NL join without an available index"
        | (e : QG.edge) :: rest -> (
            match Storage.Database.index db ~table:table_name ~col:e.QG.right_col with
            | Some idx -> (e, idx)
            | None -> find rest)
      in
      find edges
    in
    let other_edges = List.filter (fun e -> e != indexed_edge) edges in
    let outer_key_slot = slot_of ob indexed_edge.QG.left in
    let outer_key_data = column_data indexed_edge.QG.left indexed_edge.QG.left_col in
    (* Post-filter edges, preextracted like the join keys above. *)
    let nf = List.length other_edges in
    let f_oslots = Array.make nf 0 in
    let f_odatas = Array.make nf no_reader in
    let f_idatas = Array.make nf no_reader in
    List.iteri
      (fun k (e : QG.edge) ->
        f_oslots.(k) <- slot_of ob e.QG.left;
        f_odatas.(k) <- column_data e.QG.left e.QG.left_col;
        f_idatas.(k) <- column_data e.QG.right e.QG.right_col)
      other_edges;
    let out = batch_create (Array.append ob.rels [| inner_rel |]) in
    (* Index lookups are read-only (the database's index cache is a
       copy-on-write snapshot) and the compiled predicate's only mutable
       state is validated-before-use reader caches, so the probe side
       parallelizes like a hash probe. *)
    let probe =
      {
        Kernel.ix_outer = ob;
        key_slot = outer_key_slot;
        key_reader = outer_key_data;
        index;
        pred;
        fslots = f_oslots;
        freaders = f_odatas;
        finner = f_idatas;
      }
    in
    run_into out ob.nrows (fun _w ~wbase ~rcap ~sink ~grow lo hi ->
        Kernel.index_probe probe ~limit ~wbase ~rcap ~sink ~grow lo hi);
    retire ob;
    out
  in

  let finish batch =
    let mins =
      List.map
        (fun (rel, col) ->
          let slot = slot_of batch rel in
          let column = Storage.Table.column (QG.relation graph rel).QG.table col in
          let read = Storage.Column.reader column in
          let best = ref None in
          for i = 0 to batch.nrows - 1 do
            let row = batch.data.((i * batch.width) + slot) in
            let v = read row in
            if v <> null then
              match !best with
              | Some b when b <= v -> ()
              | _ -> best := Some v
          done;
          match !best with
          | None -> Storage.Value.Null
          | Some code -> (
              match Storage.Column.dict column with
              | None -> Storage.Value.Int code
              | Some dict -> Storage.Value.Str (Storage.Dict.get dict code)))
        projections
    in
    {
      rows = batch.nrows;
      work = !work;
      runtime_ms = float_of_int !work /. Engine_config.work_units_per_ms;
      timed_out = false;
      mins;
    }
  in
  let t_exec = Obs.Trace.start () in
  let give_back () =
    if Util.Once.is_val workers then
      Array.iter (fun w -> Reserve.give w.wout.data) (Util.Once.force workers);
    List.iter Reserve.give !owned
  in
  Fun.protect ~finally:give_back @@ fun () ->
  match finish (eval plan) with
  | r ->
      Obs.Trace.span ph_exec ~t0:t_exec ~a:r.rows ~b:r.work;
      r
  | exception Timeout ->
      let r =
        {
          rows = 0;
          work = limit;
          runtime_ms = float_of_int limit /. Engine_config.work_units_per_ms;
          timed_out = true;
          mins = [];
        }
      in
      Obs.Trace.span ph_exec ~t0:t_exec ~a:0 ~b:limit;
      r
