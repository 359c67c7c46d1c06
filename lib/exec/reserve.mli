(** A process-wide reserve of executor scratch arrays.

    The runtime [malloc]s every large array afresh and frees it only
    when the major GC sweeps it, so an executor that allocated its big
    intermediates per query paid their page faults again on every query
    and kept dead ones until the next sweep. The executor instead draws
    its scratch arrays from here and gives them all back when a run
    ends (see DESIGN §2d).

    The reserve holds at most 32 arrays of at least 1024 words and
    256 Mi words (2 GiB) in all: the working sets of two concurrent
    queries at the default row limit. It keeps the longest arrays it is
    given. Any domain may take and give; neither allocates, apart from
    a fresh array when nothing fits. *)

val take : int -> int array
(** [take n] is an array of at least [n] words: the shortest one in
    the reserve that fits, removed from it, or else a fresh one of
    exactly [n] words. The contents are arbitrary, so the caller writes
    before it reads. *)

val give : int array -> unit
(** [give a] offers [a] to the reserve, which keeps it if it has room,
    evicting shorter arrays to make it. The caller must hold the only
    reference to [a]. *)
