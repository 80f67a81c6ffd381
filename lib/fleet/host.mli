(** One simulated fleet host: a full machine / physical memory /
    allocator / revoker stack serving its shard of the global trace.

    {!run} is a caller of the open-loop serving rig of {!Workload.Serve}
    ({!Workload.Serve.create_rig}/{!Workload.Serve.run_rig}). It feeds
    the rig an {e explicit} arrival list instead of a generated one: the
    fleet dispatcher owns the trace, arrivals are released at absolute
    fleet-clock cycles, and every latency is measured from the request's
    fleet-wide intended arrival — a request redistributed to this host
    after a failover still charges its queueing delay from the original
    timestamp. What the host adds is the crash model, the per-request
    results and the time slices; it installs its chaos schedule between
    building the rig and running it, once the queue exists.

    Blackout [windows] model this host's crashes/restarts with {e real
    loss semantics}: at each window start an {!Chaos.Inflight_loss}
    fault drains everything still queued (each request traced
    [Req_lost]/0 and reported [R_lost]), a request whose service
    straddled the crash has its {e response} destroyed ([Req_lost]/1 —
    the work is wasted and the server rides out the outage), and on
    sweeping modes the revoker additionally takes an induced sweep
    crash, so recovery runs through the resumable-epoch protocol. The
    balancer never dispatches arrivals {e into} a window, so every loss
    here was admitted before its crash.

    Every arrival ends in exactly one {!result}, reported back to the
    fleet in [h_results] — the per-request record the retry layer,
    circuit breakers, and the fleet-wide accounting identity are built
    from.

    Hosts share no mutable state; {!run} is safe to fan out across
    domains and its outcome is a pure function of its config. *)

type arrival = {
  a_id : int;  (** fleet-wide request/attempt id *)
  a_intended : int;  (** intended arrival, fleet-clock cycles *)
  a_cls : int;  (** priority class code ({!Service.Loadgen.cls_code}) *)
}

type result =
  | R_served of { completed : int; latency_us : float }
      (** answered; [latency_us] measured from this arrival's own
          intended time *)
  | R_shed of { why : int; at : int }
      (** rejected at cycle [at], [why] being the [Req_shed] code
          ({!Service.Squeue.why_deadline}, {!Service.Squeue.why_brownout},
          or 0 for queue depth) — the client hears the refusal
          immediately *)
  | R_lost of { at : int }
      (** destroyed by the crash at cycle [at] (queued or in service) —
          the client hears {e nothing} and only times out *)

type config = {
  host : int;  (** fleet index, for labels and seed splitting *)
  mode : Ccr.Runtime.mode;
  governed : bool;  (** install the per-host SLO {!Service.Governor} *)
  servers : int;
  queue_depth : int;
  deadline_us : float option;
      (** base queueing-deadline budget, stretched per class
          ({!Service.Loadgen.deadline_factor}): critical 1x, normal 4x,
          background exempt *)
  brownout : Service.Squeue.brownout option;
      (** per-host brownout band; when set, the governor also defers
          revocation harder while the band is engaged *)
  target_p99_us : float;
  session_slots : int;
  temps_per_req : int;
  compute_per_req : int;
  heap_mb : int;
  seed : int;
  check : bool;
      (** attach a tracer, the protocol sanitizer and the race detector;
          unchecked hosts run without a tracer *)
  policy : Ccr.Policy.t option;
  recovery : Ccr.Revoker.recovery option;
  windows : (int * int) list;  (** blackouts, [(down, up)] cycles *)
  slices : int;
      (** time-sliced latency record: the trace horizon is cut into this
          many equal slices and each served request is also recorded
          into its {e intended-arrival} slice *)
  origin : int;  (** first slice boundary — the end of warmup, cycles *)
  horizon : int;  (** last intended arrival fleet-wide, cycles *)
}

type outcome = {
  h_host : int;
  h_arrivals : int;  (** requests dispatched to this host *)
  h_served : int;
  h_shed_depth : int;
  h_shed_deadline : int;
  h_shed_brownout : int;
  h_lost : int;  (** queue-drained at a crash + in-service response loss *)
  h_brownout_shifts : int;  (** brownout band transitions (both edges) *)
  h_violations : int;  (** served requests over the SLO target *)
  h_hist : Stats.Histogram.t;  (** latency from intended arrival, µs *)
  h_slices : Stats.Histogram.t array;
      (** latency by intended-arrival time slice, [config.slices] long *)
  h_results : (int * result) array;
      (** every arrival's terminal outcome, sorted by id — exactly
          [h_arrivals] entries; [served + shed + lost = arrivals] *)
  h_wall_cycles : int;
  h_epochs : int;  (** revocation epochs closed *)
  h_stw_pause_us : float;  (** total world-stopped time, µs *)
  h_max_pause_us : float;  (** worst single pause, µs *)
  h_epoch_resumes : int;
      (** checkpointed-epoch resumptions after crashes
          ({!Ccr.Revoker.recovery_stats}) *)
  h_sweep_crash_retries : int;
  h_chaos_injected : int;  (** chaos faults that actually fired *)
  h_governor : Service.Governor.stats option;
  h_clean : bool;  (** checkers clean and served + shed + lost = arrivals *)
  h_report : string;  (** buffered checker findings (workers don't print) *)
}

val run : config -> arrivals:arrival array -> outcome
(** Simulate the host against its arrivals, which must be nondecreasing
    in intended time. Deterministic. *)
