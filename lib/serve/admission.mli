(** Admission control: a counting gate bounding concurrent query
    execution in the serving loop. Mutex/condition based; sessions
    block in {!acquire} until a slot frees — the closed-loop traffic
    generator's back-pressure mechanism. *)

type t

val create : limit:int -> t
(** Raises [Invalid_argument] when [limit < 1]. *)

val acquire : t -> unit
(** Take a slot, blocking while [limit] queries are already in flight. *)

val release : t -> unit
(** Free a slot and wake one blocked session. *)

val with_permit : t -> (unit -> 'a) -> 'a
(** [with_permit t f] runs [f] holding a slot, and frees the slot when
    [f] returns or raises. *)

type stats = {
  peak : int;  (** high-water mark of concurrently admitted queries *)
  waits : int;  (** acquires that had to block *)
}

val stats : t -> stats
