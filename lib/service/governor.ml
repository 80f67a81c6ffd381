(* SLO-aware revocation governor. Watches queue depth, the serving-tail
   estimate and quarantine pressure, and actuates through the two hooks
   the revoker exposes: the epoch governor (WHEN an epoch opens) and the
   sweep pacer (HOW MUCH of the concurrent sweep runs per slice).

   Livelock safety: deferral is a bounded poll loop — each wait is a
   finite Machine.sleep, the total is capped by max_defer, and the force
   condition is the same Policy.should_block predicate that would park
   the application's allocators. The governor can therefore never hold
   an epoch back while allocation is blocked waiting for it: the moment
   blocking pressure exists, deferral ends (forced) and the epoch runs. *)

open Sim

type config = {
  defer_depth : int;
  defer_quantum : int;
  max_defer : int;
  quantum_pages : int;
  pace_depth : int;
  pace_quantum : int;
  eager_load : float;
}

let default_config =
  {
    defer_depth = 4;
    defer_quantum = 50_000 (* 20 µs poll while deferring an epoch *);
    max_defer = 25_000_000 (* 10 ms hard cap on any one wait loop *);
    quantum_pages = 8;
    pace_depth = 8;
    pace_quantum = 25_000 (* 10 µs poll between sweep slices *);
    eager_load = 0.3 (* eager trigger at 80% of the plain threshold *);
  }

type stats = {
  epochs_deferred : int;
  epochs_forced : int;
  eager_flushes : int;
  defer_cycles : int;
  quanta_granted : int;
  slo_events : int;
  brownout_defers : int;
}

type t = {
  cfg : config;
  m : Machine.t;
  mrs : Ccr.Mrs.t;
  rv : Ccr.Revoker.t;
  live : unit -> int;
  depth : unit -> int;
  p99 : unit -> float option;
  brownout : unit -> bool;
  target_p99_us : float;
  mutable s_deferred : int;
  mutable s_forced : int;
  mutable s_eager : int;
  mutable s_defer_cycles : int;
  mutable s_quanta : int;
  mutable s_slo : int;
  mutable s_brownout_defers : int;
}

let stats t =
  {
    epochs_deferred = t.s_deferred;
    epochs_forced = t.s_forced;
    eager_flushes = t.s_eager;
    defer_cycles = t.s_defer_cycles;
    quanta_granted = t.s_quanta;
    slo_events = t.s_slo;
    brownout_defers = t.s_brownout_defers;
  }

let emit t ctx ~arg2 kind arg =
  Machine.trace_emit t.m ~time:(Machine.now ctx) ~core:(Machine.core_id ctx)
    ~pid:(Machine.ctx_pid ctx) ~arg2 kind arg

(* The force condition IS the blocking condition: defer only while the
   application could still allocate freely if it wanted to. *)
let pressure t =
  Ccr.Policy.should_block (Ccr.Mrs.policy t.mrs) ~live:(t.live ())
    ~quarantine:(Ccr.Mrs.quarantine_bytes t.mrs)

let note_slo_breach t ctx =
  match t.p99 () with
  | Some est when est > t.target_p99_us ->
      t.s_slo <- t.s_slo + 1;
      emit t ctx
        ~arg2:(int_of_float t.target_p99_us)
        Trace.Slo_violation
        (int_of_float (Float.round est))
  | _ -> ()

let epoch_hook t ctx =
  (* Brownout mode: the host is already shedding traffic to survive, so
     revocation gets out of the way harder — any backlog at all defers
     the epoch, and the deferral budget doubles. Sampled once per epoch
     so a mid-defer brownout flip cannot unbound the loop. *)
  let browned = t.brownout () in
  let defer_depth = if browned then 0 else t.cfg.defer_depth in
  let max_defer = if browned then 2 * t.cfg.max_defer else t.cfg.max_defer in
  let deferred = ref 0 and forced = ref false in
  while (not !forced) && t.depth () > defer_depth && !deferred < max_defer do
    if pressure t then begin
      forced := true;
      t.s_forced <- t.s_forced + 1;
      emit t ctx ~arg2:(t.depth ()) Trace.Governor_force
        (Ccr.Mrs.quarantine_bytes t.mrs);
      note_slo_breach t ctx
    end
    else begin
      Machine.sleep ctx t.cfg.defer_quantum;
      deferred := !deferred + t.cfg.defer_quantum
    end
  done;
  if !deferred > 0 then begin
    t.s_deferred <- t.s_deferred + 1;
    if browned then t.s_brownout_defers <- t.s_brownout_defers + 1;
    t.s_defer_cycles <- t.s_defer_cycles + !deferred;
    emit t ctx ~arg2:(t.depth ()) Trace.Governor_defer !deferred
  end

let pace_hook t ctx ~visited =
  let waited = ref 0 in
  while
    t.depth () > t.cfg.pace_depth
    && !waited < t.cfg.max_defer
    && not (pressure t)
  do
    Machine.sleep ctx t.cfg.pace_quantum;
    waited := !waited + t.cfg.pace_quantum
  done;
  t.s_quanta <- t.s_quanta + 1;
  emit t ctx ~arg2:visited Trace.Governor_quantum t.cfg.quantum_pages;
  t.cfg.quantum_pages

let install ?(config = default_config) ?(target_p99_us = 1000.0)
    ?(p99 = fun () -> None) ?(brownout = fun () -> false) rt ~depth () =
  match (rt.Ccr.Runtime.mrs, rt.Ccr.Runtime.revoker) with
  | Some mrs, Some rv ->
      let t =
        {
          cfg = config;
          m = rt.Ccr.Runtime.machine;
          mrs;
          rv;
          live = rt.Ccr.Runtime.alloc.Alloc.Backend.live_bytes;
          depth;
          p99;
          brownout;
          target_p99_us;
          s_deferred = 0;
          s_forced = 0;
          s_eager = 0;
          s_defer_cycles = 0;
          s_quanta = 0;
          s_slo = 0;
          s_brownout_defers = 0;
        }
      in
      Ccr.Revoker.set_epoch_governor rv (Some (epoch_hook t));
      Ccr.Revoker.set_sweep_pacer rv (Some (pace_hook t));
      t
  | _ -> invalid_arg "Governor.install: Baseline runtime has no revoker"

let uninstall t =
  Ccr.Revoker.set_epoch_governor t.rv None;
  Ccr.Revoker.set_sweep_pacer t.rv None

let maybe_eager t ctx =
  let live = t.live () and q = Ccr.Mrs.quarantine_bytes t.mrs in
  if
    q > 0
    && (not (Ccr.Revoker.in_flight t.rv))
    && Ccr.Revoker.queued_bytes t.rv = 0
    && Ccr.Policy.should_revoke
         (Ccr.Policy.adaptive (Ccr.Mrs.policy t.mrs) ~load:t.cfg.eager_load)
         ~live ~quarantine:q
  then begin
    t.s_eager <- t.s_eager + 1;
    Ccr.Mrs.flush t.mrs ctx
  end
