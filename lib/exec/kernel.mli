(** The executor's per-row kernels: row-major batches, join-key hashing,
    and one closure-free probe body per join operator.

    Each probe body reads outer rows [\[lo, hi)] and appends joined rows
    to an output {e sink} — any {!batch} of the output's width. The
    serial executor passes the operator's output batch itself; morsel
    workers pass their slot-local buffer, which the executor stitches
    back together in morsel order. Either way the body is the same code,
    allocates nothing per row (no closure, no option, no write barrier),
    and charges exactly the work the cost accounting defines:

    - hash probe: [1 + chain/4] per probed row (chain = entries walked
      in the row's bucket), [1] per NULL key, when [charge] is set;
      [2] per emitted row always;
    - index probe: [4] per outer row, [+ matches] per lookup, [+ 1] per
      emitted row.

    Bodies return the work they charged. Budgets trip on monotone
    totals: after every outer row a body raises {!Timeout} when
    [wbase + work > limit], and after every emitted row when the sink
    holds more than [rcap] rows. *)

exception Timeout
(** The work or row budget was exceeded. *)

type batch = {
  rels : int array;  (** relation index of each slot *)
  slots : int array;  (** relation index -> slot, -1 when absent *)
  width : int;  (** ints per row *)
  mutable data : int array;  (** row-major base-table row ids *)
  mutable nrows : int;
}
(** Row-major tuple store for intermediate results: row [i] of relation
    slot [s] is [data.(i * width + s)]. *)

val null_key : int
(** The {!tuple_key} of a row with a NULL join key (composite hashes are
    non-negative). *)

val emit_cost : int
(** Work charged per emitted join row. *)

val copy_ints : int array -> int -> int array -> int -> int -> unit
(** [copy_ints src src_pos dst dst_pos len] — [Array.blit] for int
    arrays without the per-element write barrier. Positions are not
    bounds-checked. *)

val tuple_key : batch -> int array -> (int -> int) array -> int -> int
(** [tuple_key b slots readers i]: composite hash of row [i]'s join-key
    columns ([readers.(k)] decodes the code of the row id in slot
    [slots.(k)]), or {!null_key} if any is NULL. *)

val keys_equal :
  batch -> int array -> (int -> int) array -> int ->
  batch -> int array -> (int -> int) array -> int -> bool
(** Real key equality of outer row [i] and inner row [j] (hashes can
    collide); a NULL key equals nothing. *)

val emit_pair : batch -> grow:(batch -> int -> unit) -> batch -> int -> batch -> int -> unit
(** [emit_pair sink ~grow outer i inner j] appends outer row [i] joined
    with inner row [j]. [grow sink n] must make room for [n] more rows. *)

type hash_probe = {
  table : Join_table.view;  (** the sealed build side *)
  outer : batch;
  oslots : int array;
  oreaders : (int -> int) array;
  inner : batch;  (** build batch; table payloads are its row indexes *)
  islots : int array;
  ireaders : (int -> int) array;
  charge : bool;
      (** charge chain walks and NULL keys (false for the nested-loop
          shortcut, which charges the pair count up front) *)
}

val hash_probe :
  hash_probe ->
  limit:int ->
  wbase:int ->
  rcap:int ->
  sink:batch ->
  grow:(batch -> int -> unit) ->
  int ->
  int ->
  int
(** Probe outer rows [\[lo, hi)]: emit every (outer, inner) pair with
    equal keys, in chain order per outer row. Returns the work charged. *)

type index_probe = {
  ix_outer : batch;
  key_slot : int;  (** outer slot holding the indexed edge's row id *)
  key_reader : int -> int;  (** decodes the outer key column *)
  index : Storage.Index.t;
  pred : int -> bool;  (** the inner relation's base predicate *)
  fslots : int array;  (** post-filter edges: outer slot, *)
  freaders : (int -> int) array;  (** outer column, *)
  finner : (int -> int) array;  (** and inner column *)
}

val index_probe :
  index_probe ->
  limit:int ->
  wbase:int ->
  rcap:int ->
  sink:batch ->
  grow:(batch -> int -> unit) ->
  int ->
  int ->
  int
(** Index-nested-loop probe of outer rows [\[lo, hi)]: emits each outer
    row extended by every index match passing [pred] and the
    post-filters. Returns the work charged. *)
