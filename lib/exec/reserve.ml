let max_words = 256 * 1024 * 1024
let max_arrays = 32

(* Slots [0, count) hold the arrays, [words] their total length. *)
type t = {
  lock : Mutex.t;
  slots : int array array;
  mutable count : int;
  mutable words : int;
}

(* domlint: safe R1 — every field is read and written under [lock] *)
let reserve =
  { lock = Mutex.create (); slots = Array.make max_arrays [||]; count = 0; words = 0 }

(* The index of the shortest array of at least [n] words, or -1. Best
   fit: a small request never takes a large array that a later
   intermediate would then have to allocate again. *)
let best_fit r n =
  let best = ref (-1) in
  for i = 0 to r.count - 1 do
    let len = Array.length r.slots.(i) in
    if len >= n && (!best < 0 || len < Array.length r.slots.(!best)) then best := i
  done;
  !best

let remove r i =
  let a = r.slots.(i) in
  r.count <- r.count - 1;
  r.words <- r.words - Array.length a;
  r.slots.(i) <- r.slots.(r.count);
  r.slots.(r.count) <- [||];
  a

(* Nothing under the lock can raise. *)
let take n =
  let r = reserve in
  Mutex.lock r.lock;
  let i = best_fit r n in
  let a = if i < 0 then [||] else remove r i in
  Mutex.unlock r.lock;
  if i < 0 then Array.make n 0 else a

let give a =
  let r = reserve and n = Array.length a in
  if n >= 1024 then begin
    Mutex.lock r.lock;
    let full () = r.count = max_arrays || r.words + n > max_words in
    let shortest = ref (best_fit r 0) in
    while full () && !shortest >= 0 && Array.length r.slots.(!shortest) < n do
      ignore (remove r !shortest);
      shortest := best_fit r 0
    done;
    if not (full ()) then begin
      r.slots.(r.count) <- a;
      r.count <- r.count + 1;
      r.words <- r.words + n
    end;
    Mutex.unlock r.lock
  end
