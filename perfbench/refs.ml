(* Committed reference answers, one tab-separated file per
   (kind, data seed, scale) under perfbench/refs/.

   The answers do not depend on the plan: a JOB query's result rows and
   MINs are what any correct plan returns, and a query's exact full-join
   cardinality and true-cardinality DP optimum are functions of the data
   alone. A change to estimates, plans or operators therefore needs no
   benchmark edit. [write_job] derives each answer from two plans (see
   there), so a wrong answer would have to be wrong in the same way on
   both. *)

type answer = { rows : int; mins : string list }

type optimum = { full_card : float; dp_cost : float }

let file ~dir ~kind ~data_seed ~scale =
  Filename.concat dir (Printf.sprintf "%s_seed%d_scale%g.tsv" kind data_seed scale)

let read_lines path =
  if not (Sys.file_exists path) then
    failwith
      (Printf.sprintf
         "no committed references at %s (generate them with --write-refs)" path);
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l when l = "" || l.[0] = '#' -> go acc
    | l -> go (String.split_on_char '\t' l :: acc)
    | exception End_of_file -> List.rev acc
  in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go [])

let load_job path =
  let tbl = Hashtbl.create 128 in
  List.iter
    (function
      | name :: rows :: mins ->
          Hashtbl.replace tbl name
            { rows = int_of_string rows; mins = List.map Scanf.unescaped mins }
      | _ -> failwith ("malformed reference line in " ^ path))
    (read_lines path);
  tbl

let load_optimum path =
  let tbl = Hashtbl.create 128 in
  List.iter
    (function
      | [ name; card; cost ] ->
          Hashtbl.replace tbl name
            { full_card = float_of_string card; dp_cost = float_of_string cost }
      | _ -> failwith ("malformed reference line in " ^ path))
    (read_lines path);
  tbl

let answer_of (r : Exec.Executor.result) =
  { rows = r.Exec.Executor.rows; mins = List.map Storage.Value.to_string r.Exec.Executor.mins }

let write path header lines =
  let oc = open_out path in
  output_string oc ("# " ^ header ^ "\n");
  List.iter (fun l -> output_string oc (String.concat "\t" l ^ "\n")) lines;
  close_out oc;
  Printf.printf "wrote %s (%d entries)\n%!" path (List.length lines)

(* Each answer is computed under the benchmark's plan (PostgreSQL
   estimates) and under the true-cardinality plan with work and row
   limits raised twentyfold, so that queries the benchmark's plan times
   out on still get a reference. Where both complete they must agree. *)
let write_job ~dir ~data_seed ~scale =
  let pipe = Core.Session.create ~seed:data_seed ~scale () in
  Core.Session.set_physical_design pipe Storage.Database.Pk_only;
  let robust = Exec.Engine_config.robust in
  let generous =
    {
      robust with
      Exec.Engine_config.work_limit = 20 * robust.Exec.Engine_config.work_limit;
      row_limit = 20 * robust.Exec.Engine_config.row_limit;
    }
  in
  let lines =
    List.map
      (fun (j : Workload.Job.query) ->
        let name = j.Workload.Job.name in
        let q = Core.Session.sql pipe ~name j.Workload.Job.sql in
        let bench = Core.Session.run pipe q (Core.Session.optimize pipe q) in
        let oracle =
          Core.Session.run pipe ~engine:generous q
            (Core.Session.optimize pipe ~estimator:"true" q)
        in
        let completed (r : Exec.Executor.result) = not r.Exec.Executor.timed_out in
        let ans =
          match (completed bench, completed oracle) with
          | true, true ->
              if answer_of bench <> answer_of oracle then
                failwith (name ^ ": plans disagree on the answer");
              answer_of oracle
          | false, true -> answer_of oracle
          | true, false -> answer_of bench
          | false, false -> failwith (name ^ ": no plan completes")
        in
        name :: string_of_int ans.rows :: List.map String.escaped ans.mins)
      Workload.Job.all
  in
  write
    (file ~dir ~kind:"job" ~data_seed ~scale)
    (Printf.sprintf "JOB answers (rows, MINs): data seed %d, scale %g" data_seed
       scale)
    lines

(* Full-join cardinality from [True_card], checked against an executed
   row count, and the Cmm cost of the DP plan over true cardinalities. *)
let write_optimum ~dir ~data_seed ~scale =
  let pipe = Core.Session.create ~seed:data_seed ~scale () in
  Core.Session.set_physical_design pipe Storage.Database.Pk_only;
  let lines =
    List.map
      (fun (j : Workload.Job.query) ->
        let name = j.Workload.Job.name in
        let q = Core.Session.sql pipe ~name j.Workload.Job.sql in
        let truth = Core.Pipeline.truth pipe q in
        let card =
          Cardest.True_card.card truth (Query.Query_graph.full_set q.Core.Session.graph)
        in
        let choice = Core.Session.optimize pipe ~estimator:"true" ~cost_model:"Cmm" q in
        let r = Core.Session.run pipe q choice in
        if r.Exec.Executor.timed_out || float_of_int r.Exec.Executor.rows <> card
        then failwith (name ^ ": executed rows disagree with True_card");
        [ name; Printf.sprintf "%.17g" card;
          Printf.sprintf "%.17g" choice.Core.Session.estimated_cost ])
      Workload.Job.all
  in
  write
    (file ~dir ~kind:"optimum" ~data_seed ~scale)
    (Printf.sprintf
       "full-join cardinality, true-cardinality DP optimum (Cmm): data seed %d, \
        scale %g"
       data_seed scale)
    lines
