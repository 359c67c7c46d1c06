(* Open-addressed int-keyed table: key codes in [keys] (linear probing,
   [free] marks an empty slot), each key's row ids in [rows] at the same
   slot. Lookups hash the code, compare ints, and return the shared row
   array — nothing is allocated per probe, unlike a polymorphic
   [Hashtbl] ([caml_hash], [compare_val] and a [Some] box per call). *)
type t = {
  table_name : string;
  column : int;
  keys : int array;
  rows : int array array;
  mask : int;
  distinct : int;
  indexed_rows : int;
}

(* NULLs are never indexed, so the NULL code is free to mark an empty
   slot. *)
let free = Value.null_code

(* domlint: safe [R1] — empty sentinel shared read-only, never written *)
let empty_rows : int array = [||]

let slot mask code =
  let h = code * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land mask

(* Slot holding [code], or the empty slot where it would go. *)
let find keys mask code =
  let s = ref (slot mask code) in
  while
    let k = Array.unsafe_get keys !s in
    k <> code && k <> free
  do
    s := (!s + 1) land mask
  done;
  !s

let build table ~col =
  let column = Table.column table col in
  (* Pass 1: distinct codes and their counts, doubling at half load. *)
  let keys = ref (Array.make 1024 free) in
  let counts = ref (Array.make 1024 0) in
  let distinct = ref 0 in
  let grow () =
    let n = 2 * Array.length !keys in
    let keys' = Array.make n free and counts' = Array.make n 0 in
    Array.iteri
      (fun i k ->
        if k <> free then begin
          let s = find keys' (n - 1) k in
          keys'.(s) <- k;
          counts'.(s) <- !counts.(i)
        end)
      !keys;
    keys := keys';
    counts := counts'
  in
  Column.iter_codes column (fun code ->
      if code <> free then begin
        let s = find !keys (Array.length !keys - 1) code in
        let s =
          if !keys.(s) <> free then s
          else begin
            if 2 * (!distinct + 1) > Array.length !keys then grow ();
            let s = find !keys (Array.length !keys - 1) code in
            !keys.(s) <- code;
            incr distinct;
            s
          end
        in
        !counts.(s) <- !counts.(s) + 1
      end);
  let keys = !keys and counts = !counts in
  let mask = Array.length keys - 1 in
  (* Pass 2: row ids per key, ascending. [counts] becomes the fill
     cursor. *)
  let rows =
    Array.map (fun n -> if n = 0 then empty_rows else Array.make n 0) counts
  in
  Array.fill counts 0 (Array.length counts) 0;
  let indexed = ref 0 in
  let row = ref 0 in
  Column.iter_codes column (fun code ->
      if code <> free then begin
        let s = find keys mask code in
        rows.(s).(counts.(s)) <- !row;
        counts.(s) <- counts.(s) + 1;
        incr indexed
      end;
      incr row);
  {
    table_name = Table.name table;
    column = col;
    keys;
    rows;
    mask;
    distinct = !distinct;
    indexed_rows = !indexed;
  }

let table_name t = t.table_name
let column t = t.column

let lookup t code =
  if code = free then empty_rows else Array.unsafe_get t.rows (find t.keys t.mask code)

let count t code = Array.length (lookup t code)

let distinct_keys t = t.distinct

let average_fanout t =
  if t.distinct = 0 then 0.0
  else float_of_int t.indexed_rows /. float_of_int t.distinct
