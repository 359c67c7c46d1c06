exception Timeout

type batch = {
  rels : int array;
  slots : int array;
  width : int;
  mutable data : int array;
  mutable nrows : int;
}

let null = Storage.Value.null_code

let null_key = -1

let emit_cost = 2

(* Every copy below is a loop over [int array]s rather than [Array.blit]:
   the blit primitive is polymorphic and runs [caml_modify] per element
   when the destination lives in the major heap — which every large
   batch does. *)
let copy_ints (src : int array) src_pos (dst : int array) dst_pos len =
  for k = 0 to len - 1 do
    Array.unsafe_set dst (dst_pos + k) (Array.unsafe_get src (src_pos + k))
  done

let tuple_key (b : batch) slots (readers : (int -> int) array) i =
  let base = i * b.width in
  let data = b.data in
  let h = ref 0 in
  let ok = ref true in
  for k = 0 to Array.length slots - 1 do
    let v =
      (Array.unsafe_get readers k)
        (Array.unsafe_get data (base + Array.unsafe_get slots k))
    in
    if v = null then ok := false else h := Join_table.combine !h v
  done;
  if !ok then !h else null_key

let keys_equal (outer : batch) oslots (oreaders : (int -> int) array) i
    (inner : batch) islots (ireaders : (int -> int) array) j =
  let obase = i * outer.width and ibase = j * inner.width in
  let od = outer.data and id = inner.data in
  let n = Array.length oslots in
  let k = ref 0 in
  while
    !k < n
    &&
    let ov = (Array.unsafe_get oreaders !k) od.(obase + oslots.(!k)) in
    ov <> null && ov = (Array.unsafe_get ireaders !k) id.(ibase + islots.(!k))
  do
    incr k
  done;
  !k = n

let emit_pair sink ~grow (outer : batch) i (inner : batch) j =
  let r = sink.nrows and width = sink.width in
  if (r + 1) * width > Array.length sink.data then grow sink 1;
  let base = r * width in
  copy_ints outer.data (i * outer.width) sink.data base outer.width;
  copy_ints inner.data (j * inner.width) sink.data (base + outer.width)
    inner.width;
  sink.nrows <- r + 1

type hash_probe = {
  table : Join_table.view;
  outer : batch;
  oslots : int array;
  oreaders : (int -> int) array;
  inner : batch;
  islots : int array;
  ireaders : (int -> int) array;
  charge : bool;
}

(* The per-row body is written out in full — chain walk, key equality,
   row copy — because the tree builds with [-opaque]: nothing here would
   be inlined across a module boundary, and a helper taking a callback
   would allocate a closure per outer row. *)
let hash_probe p ~limit ~wbase ~rcap ~sink ~grow lo hi =
  let { Join_table.buckets; mask; next; hashes; payloads } = p.table in
  let outer = p.outer and inner = p.inner in
  let od = outer.data and ow = outer.width in
  let id = inner.data and iw = inner.width in
  let oslots = p.oslots and oreaders = p.oreaders in
  let islots = p.islots and ireaders = p.ireaders in
  let charge = p.charge in
  let nk = Array.length oslots in
  let width = sink.width in
  let wk = ref 0 in
  for i = lo to hi - 1 do
    let h = tuple_key outer oslots oreaders i in
    if h = null_key then (if charge then incr wk)
    else begin
      let obase = i * ow in
      let chain = ref 0 in
      let e = ref (Array.unsafe_get buckets (h land mask)) in
      while !e >= 0 do
        let ent = !e in
        incr chain;
        if Array.unsafe_get hashes ent = h then begin
          let ibase = Array.unsafe_get payloads ent * iw in
          let k = ref 0 in
          while
            !k < nk
            &&
            let ov =
              (Array.unsafe_get oreaders !k)
                (Array.unsafe_get od (obase + Array.unsafe_get oslots !k))
            in
            ov <> null
            && ov
               = (Array.unsafe_get ireaders !k)
                   (Array.unsafe_get id (ibase + Array.unsafe_get islots !k))
          do
            incr k
          done;
          if !k = nk then begin
            let r = sink.nrows in
            if (r + 1) * width > Array.length sink.data then grow sink 1;
            let d = sink.data and base = r * width in
            for c = 0 to ow - 1 do
              Array.unsafe_set d (base + c) (Array.unsafe_get od (obase + c))
            done;
            for c = 0 to iw - 1 do
              Array.unsafe_set d (base + ow + c) (Array.unsafe_get id (ibase + c))
            done;
            sink.nrows <- r + 1;
            wk := !wk + emit_cost;
            if r + 1 > rcap then raise Timeout
          end
        end;
        e := Array.unsafe_get next ent
      done;
      (* Chain entries are hash comparisons on consecutive memory:
         a quarter of a tuple's work each. *)
      if charge then wk := !wk + 1 + (!chain / 4)
    end;
    if wbase + !wk > limit then raise Timeout
  done;
  !wk

type index_probe = {
  ix_outer : batch;
  key_slot : int;
  key_reader : int -> int;
  index : Storage.Index.t;
  pred : int -> bool;
  fslots : int array;
  freaders : (int -> int) array;
  finner : (int -> int) array;
}

let index_probe p ~limit ~wbase ~rcap ~sink ~grow lo hi =
  let outer = p.ix_outer in
  let od = outer.data and ow = outer.width in
  let key_slot = p.key_slot and key_reader = p.key_reader in
  let index = p.index and pred = p.pred in
  let fslots = p.fslots and freaders = p.freaders and finner = p.finner in
  let nf = Array.length fslots in
  let width = sink.width in
  let wk = ref 0 in
  for i = lo to hi - 1 do
    wk := !wk + 4; (* index descent: random access *)
    let obase = i * ow in
    let key = key_reader (Array.unsafe_get od (obase + key_slot)) in
    if key <> null then begin
      let matches = Storage.Index.lookup index key in
      let nm = Array.length matches in
      wk := !wk + nm;
      for t = 0 to nm - 1 do
        let row = Array.unsafe_get matches t in
        if pred row then begin
          let k = ref 0 in
          while
            !k < nf
            &&
            let ov =
              (Array.unsafe_get freaders !k)
                (Array.unsafe_get od (obase + Array.unsafe_get fslots !k))
            in
            ov <> null && ov = (Array.unsafe_get finner !k) row
          do
            incr k
          done;
          if !k = nf then begin
            let r = sink.nrows in
            if (r + 1) * width > Array.length sink.data then grow sink 1;
            let d = sink.data and base = r * width in
            for c = 0 to ow - 1 do
              Array.unsafe_set d (base + c) (Array.unsafe_get od (obase + c))
            done;
            Array.unsafe_set d (base + ow) row;
            sink.nrows <- r + 1;
            incr wk;
            if r + 1 > rcap then raise Timeout
          end
        end
      done
    end;
    if wbase + !wk > limit then raise Timeout
  done;
  !wk
