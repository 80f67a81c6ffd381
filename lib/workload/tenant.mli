(** Multi-tenant driver: N concurrent SPEC profiles in separate
    processes on one machine.

    Each tenant is a forked process ({!Os.fork}) running the same
    profile under its own deterministic operation stream, its own
    allocator clone, quarantine and revoker; the {!Os.Revsched} token
    arbitrates whose revocation epoch runs next. Reports aggregate
    throughput, per-tenant elapsed time and a fairness ratio (slowest
    tenant over fastest — 1.0 means perfectly fair). *)

type tenant_result = {
  t_pid : int;
  t_profile : string;
  t_ops : int;
  t_elapsed_cycles : int;  (** fork to exit *)
  t_quarantine_peak : int;  (** quarantined bytes when the tenant exited *)
}

type result = {
  mode : string;
  sched : string;
  tenants : int;
  wall_cycles : int;
  total_ops : int;
  throughput : float;  (** aggregate ops per million wall cycles *)
  fairness : float;  (** max tenant elapsed / min tenant elapsed *)
  per_tenant : tenant_result list;
  sched_stats : Os.Revsched.stats list;
}

val run :
  ?seed:int ->
  ?ops_scale:float ->
  ?policy:Ccr.Policy.t ->
  ?sched:Os.Revsched.policy ->
  ?tenants:int ->
  ?tracer:Sim.Trace.t ->
  ?on_os:(Os.t -> unit) ->
  mode:Ccr.Runtime.mode ->
  Profile.t ->
  result
(** [tenants] defaults to 2. [on_os] is called with the freshly-built
    process table after the tracer is attached but before any thread
    runs — analyses use it to register per-process shadow state via
    {!Os.set_on_process}. The same [seed] produces the same per-tenant
    streams across modes and scheduling policies.

    @raise Invalid_argument if [tenants < 1], or if [ops_scale] is
    negative or not finite. *)

val pp : Format.formatter -> result -> unit
