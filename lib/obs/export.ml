(* JSON rendering, hand-rolled like every other *.json writer in the
   tree (no JSON dependency). Spans arrive already deterministically
   ordered from Trace.flush; phase totals and the metrics dump are
   sorted by name, so the whole document is reproducible byte-for-byte
   given the same recorded data. *)

type phase_total = {
  pt_phase : string;
  pt_spans : int;
  pt_total_ms : float;
}

let phase_totals spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s : Trace.sp) ->
      let n, ns =
        match Hashtbl.find_opt tbl s.Trace.sp_phase with
        | Some (n, ns) -> (n, ns)
        | None -> (0, 0)
      in
      Hashtbl.replace tbl s.Trace.sp_phase (n + 1, ns + s.Trace.sp_dur_ns))
    spans;
  Hashtbl.fold
    (fun phase (n, ns) acc ->
      { pt_phase = phase; pt_spans = n; pt_total_ms = float_of_int ns /. 1e6 }
      :: acc)
    tbl []
  |> List.sort (fun a b -> String.compare a.pt_phase b.pt_phase)

let top_level_phases = [ "bind"; "plan"; "verify"; "exec" ]

let coverage ~wall_ms spans =
  if wall_ms <= 0.0 then 0.0
  else
    let ns =
      List.fold_left
        (fun acc (s : Trace.sp) ->
          if List.mem s.Trace.sp_phase top_level_phases then
            acc + s.Trace.sp_dur_ns
          else acc)
        0 spans
    in
    float_of_int ns /. 1e6 /. wall_ms

let metrics_json b dump =
  Buffer.add_string b "{";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b (Printf.sprintf "\"%s\": " (Util.Json.escape name));
      match v with
      | Metrics.Count n -> Buffer.add_string b (string_of_int n)
      | Metrics.Level f -> Buffer.add_string b (Printf.sprintf "%g" f)
      | Metrics.Dist h ->
          Buffer.add_string b
            (Printf.sprintf "{\"count\": %d, \"sum\": %d, \"buckets\": ["
               (Histogram.count h) (Histogram.sum h));
          let counts = Histogram.buckets h in
          let first = ref true in
          Array.iteri
            (fun k c ->
              if c > 0 then begin
                if not !first then Buffer.add_string b ", ";
                first := false;
                Buffer.add_string b
                  (Printf.sprintf "[%d, %d]" (Histogram.bucket_lower k) c)
              end)
            counts;
          Buffer.add_string b "]}")
    dump;
  Buffer.add_string b "}"

let trace_json ?query ~wall_ms ~spans ~dropped () =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"version\": 1,\n";
  (match query with
  | Some q ->
      Buffer.add_string b
        (Printf.sprintf "  \"query\": \"%s\",\n" (Util.Json.escape q))
  | None -> ());
  Buffer.add_string b (Printf.sprintf "  \"wall_ms\": %.4f,\n" wall_ms);
  Buffer.add_string b (Printf.sprintf "  \"span_count\": %d,\n" (List.length spans));
  Buffer.add_string b (Printf.sprintf "  \"dropped\": %d,\n" dropped);
  Buffer.add_string b
    (Printf.sprintf "  \"coverage\": %.4f,\n" (coverage ~wall_ms spans));
  Buffer.add_string b "  \"phases\": [\n";
  let totals = phase_totals spans in
  List.iteri
    (fun i pt ->
      Buffer.add_string b
        (Printf.sprintf "    {\"phase\": \"%s\", \"spans\": %d, \"total_ms\": %.4f}%s\n"
           (Util.Json.escape pt.pt_phase) pt.pt_spans pt.pt_total_ms
           (if i = List.length totals - 1 then "" else ",")))
    totals;
  Buffer.add_string b "  ],\n";
  Buffer.add_string b "  \"spans\": [\n";
  List.iteri
    (fun i (s : Trace.sp) ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"phase\": \"%s\", \"domain\": %d, \"seq\": %d, \
            \"start_us\": %.1f, \"dur_us\": %.1f, \"a\": %d, \"b\": %d}%s\n"
           (Util.Json.escape s.Trace.sp_phase)
           s.Trace.sp_domain s.Trace.sp_seq
           (float_of_int s.Trace.sp_start_ns /. 1e3)
           (float_of_int s.Trace.sp_dur_ns /. 1e3)
           s.Trace.sp_a s.Trace.sp_b
           (if i = List.length spans - 1 then "" else ",")))
    spans;
  Buffer.add_string b "  ],\n";
  Buffer.add_string b "  \"metrics\": ";
  metrics_json b (Metrics.dump ());
  Buffer.add_string b "\n}\n";
  Buffer.contents b
