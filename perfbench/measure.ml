(* Clocks, process counters, sample statistics and the result document.

   Every timing in the benchmark is wall clock from [Unix.gettimeofday]
   taken around a call into a library layer; nothing here reads the
   program's own trace spans. *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Nearest-rank percentile ([q] in [0, 1]) over an exact sample: the same
   definition the serving report uses. *)
let percentile samples q =
  if samples = [||] then 0.0 else Obs.Histogram.percentile samples q

let median samples = percentile (Array.of_list samples) 0.5

(* ------------------------------------------------------------------ *)
(* Process counters                                                    *)

let status_kb field =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:(field ^ ":") line ->
        Scanf.sscanf
          (String.sub line (String.length field + 1)
             (String.length line - String.length field - 1))
          " %d" Fun.id
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let peak_rss_mb () = float_of_int (status_kb "VmHWM") /. 1024.0

type proc = {
  user_s : float;
  sys_s : float;
  minor_gcs : int;
  major_gcs : int;
  minor_words : float;  (* allocated on the calling domain *)
}

let proc () =
  let t = Unix.times () in
  let g = Gc.quick_stat () in
  {
    user_s = t.Unix.tms_utime;
    sys_s = t.Unix.tms_stime;
    minor_gcs = g.Gc.minor_collections;
    major_gcs = g.Gc.major_collections;
    minor_words = Gc.minor_words ();
  }

let proc_diff a b =
  {
    user_s = b.user_s -. a.user_s;
    sys_s = b.sys_s -. a.sys_s;
    minor_gcs = b.minor_gcs - a.minor_gcs;
    major_gcs = b.major_gcs - a.major_gcs;
    minor_words = b.minor_words -. a.minor_words;
  }

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* All digits as measured; JSON has no NaN or infinity. *)
let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else invalid_arg "json_number: non-finite metric"

type value = S of string | F of float | I of int | B of bool

let json_value = function
  | S s -> json_string s
  | F f -> json_number f
  | I i -> string_of_int i
  | B b -> string_of_bool b

let json_object fields =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> json_string k ^ ": " ^ json_value v) fields)
  ^ "}"

type metric = { name : string; unit : string; value : float }

let metric name unit value = { name; unit; value }

(* The result, printed as the last stdout line: exactly these four keys. *)
let result_line ~attempted ~failed metrics =
  let m =
    List.map
      (fun x ->
        json_string x.name ^ ": {\"value\": " ^ json_number x.value
        ^ ", \"unit\": " ^ json_string x.unit ^ "}")
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (failed = 0) attempted failed (String.concat ", " m)
