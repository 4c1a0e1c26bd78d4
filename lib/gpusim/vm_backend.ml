(** Grid-sweep back-end: a persistent pool of domains woken once per
    sweep by a single generation broadcast.

    Batched sweeps drain their schedule cooperatively off a shared
    cursor, so a sweep must cost one handoff, not one per worker.  The
    pool shares one mutex, one "new sweep" condition and a generation
    counter: [run] publishes the worker function, bumps the generation
    and broadcasts once; every domain wakes, claims its fixed index,
    runs the function and counts down a completion latch.  Domains whose index is outside the
    requested width simply go back to sleep until the next generation.

    The pool grows on demand up to the largest worker count any sweep
    requests and is torn down from [at_exit], so domains never outlive
    the runtime.  [run] hands worker [0] to the calling thread — a
    one-worker sweep never touches the pool — and blocks until every
    worker returns, which keeps sweeps synchronous.

    Not reentrant: sweeps are synchronous and issued from one thread at
    a time, so at most one [run] is in flight.

    The pool knows nothing of how a span executes: workers claim
    (launch, cta-span) items off the VM's shared cursor, and each span
    runs on the lane-blocked superinstruction (SoA) executor, in
    64-lane or one-lane tiles and only over the threads below the
    launch's proven bounds guard.  Fused units, column-resident memory
    ops, division islands and parked lanes all retire inside one cta
    before the worker claims its next span, so the schedule, the
    dependency edges and the lowest-(launch, ctaid, tid)-wins fault
    protocol do not depend on the tile width.  Nothing is keyed
    by worker index: the VM's register files live in one arena per
    domain, so a sweep's workers and the inline one-worker sweeps that
    concurrent ranks run on their own domains never share scratch. *)

let runtime = "multicore"
let available_domains () = Domain.recommended_domain_count ()

type pool = {
  m : Mutex.t;
  work : Condition.t; (* a new generation was published *)
  finished : Condition.t; (* the latch reached zero *)
  mutable gen : int;
  mutable job : (int -> unit) option;
  mutable width : int; (* workers participating in the current sweep *)
  mutable remaining : int; (* participating helpers still running *)
  mutable stop : bool;
}

let pool =
  {
    m = Mutex.create ();
    work = Condition.create ();
    finished = Condition.create ();
    gen = 0;
    job = None;
    width = 0;
    remaining = 0;
    stop = false;
  }

let spawned : unit Domain.t list ref = ref []

(* [seen0] is the generation current when the domain was created, read
   by the spawning thread before it publishes the sweep the domain is
   being grown for — a late-starting domain can therefore never miss
   the sweep that counts on it. *)
let worker_loop d seen0 =
  let seen = ref seen0 in
  let rec next () =
    Mutex.lock pool.m;
    while pool.gen = !seen && not pool.stop do
      Condition.wait pool.work pool.m
    done;
    if pool.stop then Mutex.unlock pool.m
    else begin
      seen := pool.gen;
      let job = pool.job and width = pool.width in
      Mutex.unlock pool.m;
      if d < width then begin
        (* [f] must not raise (the VM records faults out of band); the
           guard keeps a buggy worker from wedging the pool forever. *)
        (match job with Some f -> ( try f d with _ -> ()) | None -> ());
        Mutex.lock pool.m;
        pool.remaining <- pool.remaining - 1;
        if pool.remaining = 0 then Condition.signal pool.finished;
        Mutex.unlock pool.m
      end;
      next ()
    end
  in
  next ()

let shutdown () =
  Mutex.lock pool.m;
  pool.stop <- true;
  Condition.broadcast pool.work;
  Mutex.unlock pool.m;
  List.iter Domain.join !spawned;
  spawned := [];
  pool.stop <- false

let ensure extra =
  let have = List.length !spawned in
  if extra > have then begin
    if have = 0 then at_exit shutdown;
    let seen0 = pool.gen in
    for d = have + 1 to extra do
      spawned := Domain.spawn (fun () -> worker_loop d seen0) :: !spawned
    done
  end

let run ~workers f =
  if workers <= 1 then f 0
  else begin
    ensure (workers - 1);
    Mutex.lock pool.m;
    pool.job <- Some f;
    pool.width <- workers;
    pool.remaining <- workers - 1;
    pool.gen <- pool.gen + 1;
    Condition.broadcast pool.work;
    Mutex.unlock pool.m;
    Fun.protect
      ~finally:(fun () ->
        Mutex.lock pool.m;
        while pool.remaining > 0 do
          Condition.wait pool.finished pool.m
        done;
        pool.job <- None;
        Mutex.unlock pool.m)
      (fun () -> f 0)
  end
