(* The jobench command line on bad input: an unknown query or component
   name must end the command with exit code 2 and a one-line message on
   stderr, before any data is generated. *)

let jobench = "../bin/jobench.exe"

let run_jobench args =
  let err = Filename.temp_file "jobench" ".stderr" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s > /dev/null 2> %s" jobench args (Filename.quote err))
  in
  let lines = In_channel.with_open_text err In_channel.input_lines in
  Sys.remove err;
  (code, lines)

let check_bad_input args expected () =
  let code, lines = run_jobench args in
  Alcotest.(check int) "exit code" 2 code;
  Alcotest.(check (list string)) "stderr" [ expected ] lines

let suite =
  [
    Alcotest.test_case "unknown query exits 2" `Quick
      (check_bad_input "run 99z" "jobench: no such benchmark query or file: 99z");
    Alcotest.test_case "unknown estimator exits 2" `Quick
      (check_bad_input "run 1a --estimator Foo"
         "jobench: unknown estimator \"Foo\" (valid: PostgreSQL, DBMS A, DBMS B, \
          DBMS C, HyPer, PostgreSQL (true distinct), true, feedback)");
  ]
