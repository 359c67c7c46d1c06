(** Unclustered hash indexes.

    The executor's index-nested-loop join probes these; the optimizer's
    access-path choices depend on which of them exist (the paper's "no /
    PK / PK+FK" physical designs). NULL keys are not indexed. *)

type t

val build : Table.t -> col:int -> t
(** Single pass over the column, bucketing row ids by key code. *)

val table_name : t -> string
val column : t -> int

val lookup : t -> int -> int array
(** Row ids whose key equals the given code, ascending; empty array if
    none. The returned array is shared — callers must not mutate it.
    Allocates nothing (the executor's index-NL probe calls it per outer
    row). *)

val count : t -> int -> int
(** Number of matching rows, without materializing them. *)

val distinct_keys : t -> int

val average_fanout : t -> float
(** Mean bucket size over present keys. *)
