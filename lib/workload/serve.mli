(** The open-loop serving rig, and the single-host workload built on it.

    The rig is one simulated machine serving a list of arrivals. A
    non-user generator thread on core 0 releases each request at its
    intended arrival time; a stop-the-world pause cannot park it, so it
    models clients whose traffic does not pause when the server does.
    Server threads (cores 2, 3, then 1) take requests from a bounded
    {!Service.Squeue}, do gRPC-style allocation work against a
    long-lived session table, and pass each finished request to the
    caller's completion handler. The revoker shares core 3 with a
    server, so sweeps steal foreground cycles — the contention the
    optional {!Service.Governor} manages. With [check] the rig also
    attaches a tracer, the protocol sanitizer and the race detector;
    checked or not, it verifies [served + shed + lost = offered =
    arrivals] after the run.

    {!run} is the single-host caller; [Fleet.Host] is the other. *)

type config = {
  pattern : Service.Loadgen.pattern;
  requests : int;
  servers : int;  (** worker threads; 2 matches the gRPC surrogate *)
  queue_depth : int;  (** admission-control bound *)
  deadline_us : float option;  (** queue-delay drop threshold, if any *)
  target_p99_us : float;  (** SLO target fed to accounting + governor *)
  session_slots : int;
  temps_per_req : int;
  compute_per_req : int;
  seed : int;
  check : bool;  (** attach the protocol sanitizer + race detector *)
}

val default_config : config
(** Poisson 20k req/s, 6000 requests, 2 servers, depth 64, no deadline,
    1 ms p99 target, unchecked. *)

type outcome = {
  result : Result.t;  (** [latencies_us] = per-served-request, from intended arrival *)
  offered : int;
  served : int;
  shed_depth : int;
  shed_deadline : int;
  slo : Service.Slo.t;  (** histogram + violation counts *)
  governor : Service.Governor.stats option;  (** [None] when ungoverned *)
  clean : bool;  (** checkers clean (when [check]) and accounting exact *)
  report : string;  (** buffered checker findings; empty when [clean] *)
}

val run :
  ?config:config ->
  ?tracer:Sim.Trace.t ->
  ?on_runtime:(Ccr.Runtime.t -> unit) ->
  ?governed:bool ->
  mode:Ccr.Runtime.mode ->
  unit ->
  outcome
(** Serve [config.requests] arrivals drawn by {!Service.Loadgen}, all in
    class 0 (critical, so [deadline_us] applies unstretched), released
    relative to the instant the session table is ready. [governed]
    (default [false]) installs a {!Service.Governor} over the runtime's
    revoker — ignored under [Baseline], which has none. [on_runtime]
    runs with the freshly built runtime (tracer and any checkers
    already attached) before any thread spawns. Fully deterministic:
    equal arguments give equal outcomes, and
    [served + shed_depth + shed_deadline = offered = requests]. *)

(** {2 The rig} *)

type arrivals = {
  count : int;
  intended : ready:int -> int -> int;
      (** intended arrival cycle of request [i], given the cycle [ready]
          at which the session table became ready; must be
          nondecreasing in [i] *)
  id : int -> int;  (** request id of request [i] *)
  cls : int -> int;  (** priority class code of request [i] *)
}

type rig
(** A built machine and runtime with its queue and SLO record, not yet
    serving. *)

val create_rig :
  label:string ->
  heap_bytes:int ->
  ?policy:Ccr.Policy.t ->
  ?recovery:Ccr.Revoker.recovery ->
  ?tracer:Sim.Trace.t ->
  ?on_runtime:(Ccr.Runtime.t -> unit) ->
  ?brownout:Service.Squeue.brownout ->
  governed:bool ->
  config ->
  Ccr.Runtime.mode ->
  rig
(** Build the machine ([heap_bytes], seeded by [config.seed]) and
    runtime, attach [tracer] — or, with [check] and no [tracer], a
    private one — then the sanitizer and race detector when [check],
    then run [on_runtime], then create the queue and SLO record. The
    rig ignores [pattern] and [requests], which are {!run}'s. The
    [deadline_us] budget is stretched per class by
    {!Service.Loadgen.deadline_factor}. Threads are named
    [<label>-loadgen] and [<label>-server-<i>]. Raises
    [Invalid_argument] if [servers < 1]. *)

val runtime : rig -> Ccr.Runtime.t
val queue : rig -> Service.Squeue.t
val slo : rig -> Service.Slo.t

type finished = {
  wall_end : int;  (** cycle the last server finished *)
  server_threads : Sim.Machine.thread list;
  governor : Service.Governor.t option;
  lost : int;  (** drained from the queue + responses the handler lost *)
  rig_clean : bool;  (** checkers clean (when [check]) and accounting exact *)
  rig_report : string;  (** buffered checker findings and accounting drift *)
}

val run_rig :
  rig ->
  arrivals ->
  complete:
    (Sim.Machine.ctx -> Service.Squeue.req -> started:int -> completed:int -> bool) ->
  finished
(** Install the governor (when [governed] and the runtime has a
    revoker), spawn the generator and the servers, and run the machine
    to completion. Each served request is passed to [complete] with the
    cycles its service started and finished; the handler records the
    outcome (it must call {!Service.Slo.record} for a delivered
    response) and returns [false] if the response was lost, which counts
    it in [lost]. Call once per rig. *)
