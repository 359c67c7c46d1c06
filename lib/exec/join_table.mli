(** The executor's hash table for hash joins, with explicit bucket
    management so that the paper's undersized-hash-table pathology
    (Section 4.1 / Figure 6) is physically reproduced.

    In fixed mode the bucket count is chosen once from the optimizer's
    cardinality estimate — underestimates produce long collision chains
    whose traversal is charged to the query. In resizing mode (the 9.5
    patch) the table doubles when the load factor exceeds 1, and the
    rehash work is charged instead. *)

type t

val create :
  ?bucket_floor:int ->
  estimated_rows:float ->
  ?actual_rows:int ->
  resizable:bool ->
  unit ->
  t
(** [bucket_floor] defaults to 1024, PostgreSQL's effective minimum.
    Buckets are always sized from [estimated_rows] — preserving the
    paper's undersized-table pathology. [actual_rows] (the build side's
    known materialized cardinality) pre-sizes only the entry arrays so
    large builds skip the incremental doubling copies. *)

val planned_buckets : ?bucket_floor:int -> estimated_rows:float -> unit -> int
(** The initial bucket count {!create} would choose for this floor and
    estimate — the sizing half of the recycling cache's key, so a
    cached sealed table is only reused where a fresh build would have
    been bucketed identically. *)

val bucket_count : t -> int

val entry_count : t -> int

val byte_size : t -> int
(** Physical bytes of the table's bucket and entry arrays (capacity,
    not live count) — what a recycled table keeps resident. *)

val insert : t -> hash:int -> payload:int -> int
(** Add an entry; returns the work units spent (1, plus amortized rehash
    work when a resize triggers). Incremental reference path — do not
    mix with {!append}/{!seal} on the same table. *)

val append : t -> hash:int -> payload:int -> unit
(** Stage an entry without linking it into a bucket chain; probes see
    it only after {!seal}. Charge 1 work unit per appended row yourself
    (matching {!insert}'s base cost). *)

val seal : t -> int
(** Link every staged entry's chain and settle the resize bill: returns
    exactly the rehash work the incremental {!insert} schedule would
    have charged for the final entry count (0 when not resizable), and
    replaces the growth-by-rehash chain of copies with one allocation
    at the final bucket count. Chains come out in ascending payload
    order regardless of build schedule — the canonical probe order the
    serial-vs-morsel identity guarantee relies on. Call exactly once,
    after the last {!append}. *)

(** {1 Load-factor telemetry} *)

type load_stats = {
  ls_tables : int;  (** tables sealed since the last reset *)
  ls_entries : int;
  ls_buckets : int;
  ls_mean_load : float;  (** entries per bucket across all sealed tables *)
  ls_max_load : float;  (** worst single table's final load factor *)
}

val load_stats : unit -> load_stats
val reset_load_stats : unit -> unit

(** {1 Probing} *)

type view = {
  buckets : int array;  (** head entry of each bucket's chain, -1 = empty *)
  mask : int;  (** bucket of hash [h] is [h land mask] *)
  next : int array;  (** next entry in the chain, -1 = end *)
  hashes : int array;  (** entry -> full hash (chains mix hashes) *)
  payloads : int array;  (** entry -> payload *)
}
(** The chains of a table, for closure-free probe loops. A probe of
    hash [h] walks [e = buckets.(h land mask)], [next.(e)], ... while
    [e >= 0], visits [payloads.(e)] where [hashes.(e) = h] (callers
    re-check real key equality), and charges [1 + chain/4] work units
    for a chain of [chain] entries — {!Kernel.hash_probe} is that loop.
    Read-only: the arrays are the table's own. *)

val view : t -> view
(** The current chains; take it after {!seal} (or after the last
    {!insert}), since building may replace the arrays. *)

val mix : int -> int
(** Finalizer-style integer hash (SplitMix64 mixing), used to build entry
    hashes from key values. *)

val combine : int -> int -> int
(** Mix a second key column into a composite hash. *)
