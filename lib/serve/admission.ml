(* Admission control for the serving loop: a counting gate that bounds
   how many queries execute concurrently. Sessions block in [acquire]
   until a slot frees up — the closed-loop generator's back-pressure.
   All state lives behind the mutex; the condition variable wakes one
   blocked session per release. *)

type t = {
  limit : int;
  m : Mutex.t;
  freed : Condition.t;
  mutable inflight : int;
  mutable peak : int;  (* high-water mark of [inflight] *)
  mutable waits : int;  (* acquires that had to block *)
}

(* Process-wide mirrors in the Obs.Metrics registry; the per-gate
   fields above stay authoritative for per-run reports. *)
let m_waits = Obs.Metrics.counter "serve.admission.waits"
let m_peak = Obs.Metrics.gauge "serve.admission.peak"

let create ~limit =
  if limit < 1 then invalid_arg "Admission.create: limit must be >= 1";
  {
    limit;
    m = Mutex.create ();
    freed = Condition.create ();
    inflight = 0;
    peak = 0;
    waits = 0;
  }

let acquire t =
  Mutex.lock t.m;
  if t.inflight >= t.limit then begin
    t.waits <- t.waits + 1;
    Obs.Metrics.Counter.incr m_waits;
    while t.inflight >= t.limit do
      Condition.wait t.freed t.m
    done
  end;
  t.inflight <- t.inflight + 1;
  if t.inflight > t.peak then begin
    t.peak <- t.inflight;
    Obs.Metrics.Gauge.set_max m_peak (float_of_int t.inflight)
  end;
  Mutex.unlock t.m

let release t =
  Mutex.lock t.m;
  t.inflight <- t.inflight - 1;
  Condition.signal t.freed;
  Mutex.unlock t.m

let with_permit t f =
  acquire t;
  Fun.protect ~finally:(fun () -> release t) f

type stats = { peak : int; waits : int }

let stats t =
  Mutex.lock t.m;
  let s = { peak = t.peak; waits = t.waits } in
  Mutex.unlock t.m;
  s
