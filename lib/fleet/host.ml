module Machine = Sim.Machine
module Cost = Sim.Cost
module Trace = Sim.Trace
module Runtime = Ccr.Runtime
module Revoker = Ccr.Revoker
module Squeue = Service.Squeue
module Slo = Service.Slo
module Governor = Service.Governor
module Serve = Workload.Serve

type arrival = { a_id : int; a_intended : int; a_cls : int }

type result =
  | R_served of { completed : int; latency_us : float }
  | R_shed of { why : int; at : int }
  | R_lost of { at : int }

type config = {
  host : int;
  mode : Runtime.mode;
  governed : bool;
  servers : int;
  queue_depth : int;
  deadline_us : float option;
  brownout : Squeue.brownout option;
  target_p99_us : float;
  session_slots : int;
  temps_per_req : int;
  compute_per_req : int;
  heap_mb : int;
  seed : int;
  check : bool;
  policy : Ccr.Policy.t option;
  recovery : Ccr.Revoker.recovery option;
  windows : (int * int) list;
  slices : int;
  origin : int;
  horizon : int;
}

type outcome = {
  h_host : int;
  h_arrivals : int;
  h_served : int;
  h_shed_depth : int;
  h_shed_deadline : int;
  h_shed_brownout : int;
  h_lost : int;
  h_brownout_shifts : int;
  h_violations : int;
  h_hist : Stats.Histogram.t;
  h_slices : Stats.Histogram.t array;
  h_results : (int * result) array;
  h_wall_cycles : int;
  h_epochs : int;
  h_stw_pause_us : float;
  h_max_pause_us : float;
  h_epoch_resumes : int;
  h_sweep_crash_retries : int;
  h_chaos_injected : int;
  h_governor : Governor.stats option;
  h_clean : bool;
  h_report : string;
}

(* A request whose service started before a crash and whose answer was
   produced at-or-after it crossed the outage: the host computed a
   response nobody will ever receive. [at] is the crash cycle. *)
let crossed_crash windows ~started ~completed =
  List.fold_left
    (fun acc (down, _up) ->
      match acc with
      | Some _ -> acc
      | None -> if started < down && completed >= down then Some down else acc)
    None windows

(* Faults at each blackout start. Every mode loses its in-flight queue
   (Inflight_loss — the crash destroys admitted-but-unanswered work);
   sweeping modes additionally take an induced sweep crash, so the
   restart exercises the resumable-epoch recovery path (the checkpointed
   sweep cursor survives and the epoch resumes, not restarts). *)
let crash_schedule cfg =
  if cfg.windows = [] then None
  else
    let inflight =
      List.mapi
        (fun i (down, _up) ->
          {
            Chaos.f_id = i;
            f_kind = Chaos.Inflight_loss;
            f_at = down;
            f_param = 0;
            f_count = 1;
          })
        cfg.windows
    in
    let sweeps =
      match cfg.mode with
      | Runtime.Baseline -> []
      | Runtime.Safe strategy ->
          if not (Chaos.applicable strategy Chaos.Sweep_crash) then []
          else
            List.mapi
              (fun i (down, _up) ->
                {
                  Chaos.f_id = List.length inflight + i;
                  f_kind = Chaos.Sweep_crash;
                  f_at = down;
                  f_param = 0;
                  f_count = 1;
                })
              cfg.windows
    in
    let faults = inflight @ sweeps in
    let horizon = List.fold_left (fun a (_, up) -> max a up) 0 cfg.windows in
    Some
      {
        Chaos.sched_id = (cfg.seed * 127) lxor (cfg.host * 31) land 0x3fffffff;
        horizon;
        faults;
      }

let run cfg ~arrivals =
  if cfg.slices < 1 then invalid_arg "Host.run: need at least one slice";
  let slices = Array.init cfg.slices (fun _ -> Stats.Histogram.create ()) in
  let span = max 1 (cfg.horizon - cfg.origin) in
  let slice_of intended =
    let dt = max 0 (intended - cfg.origin) in
    min (cfg.slices - 1) (dt * cfg.slices / span)
  in
  let rig =
    Serve.create_rig
      ~label:(Printf.sprintf "fleet-h%d" cfg.host)
      ~heap_bytes:(cfg.heap_mb * 1024 * 1024)
      ?policy:cfg.policy ?recovery:cfg.recovery ?brownout:cfg.brownout
      ~governed:cfg.governed
      {
        Serve.default_config with
        servers = cfg.servers;
        queue_depth = cfg.queue_depth;
        deadline_us = cfg.deadline_us;
        target_p99_us = cfg.target_p99_us;
        session_slots = cfg.session_slots;
        temps_per_req = cfg.temps_per_req;
        compute_per_req = cfg.compute_per_req;
        seed = cfg.seed;
        check = cfg.check;
      }
      cfg.mode
  in
  let rt = Serve.runtime rig and queue = Serve.queue rig in
  let slo = Serve.slo rig in
  let m = rt.Runtime.machine in
  (* per-request terminal outcomes, keyed by fleet request id *)
  let results : (int, result) Hashtbl.t =
    Hashtbl.create (max 16 (Array.length arrivals))
  in
  (* The crash half of lost-in-flight: at each window start the
     Inflight_loss fault drains everything still queued. *)
  let drop_inflight ctx =
    let dropped = Squeue.drain_lost queue ctx in
    let at = Machine.now ctx in
    List.iter
      (fun (r : Squeue.req) -> Hashtbl.replace results r.id (R_lost { at }))
      dropped;
    List.length dropped
  in
  let chaos =
    Option.map
      (fun s ->
        Chaos.install m ~revoker:rt.Runtime.revoker ~mrs:rt.Runtime.mrs
          ~drop_inflight s)
      (crash_schedule cfg)
  in
  let complete ctx (req : Squeue.req) ~started ~completed =
    match crossed_crash cfg.windows ~started ~completed with
    | Some down ->
        (* the crash destroyed the response before it left the host: the
           work is wasted, the client hears nothing, and this server
           rides out the outage (its reboot) *)
        Machine.trace_emit m ~time:completed ~core:(Machine.core_id ctx)
          ~pid:(Machine.ctx_pid ctx) ~arg2:1 Trace.Req_lost req.id;
        Hashtbl.replace results req.id (R_lost { at = down });
        let up =
          List.fold_left
            (fun acc (d, u) -> if d = down then u else acc)
            completed cfg.windows
        in
        let dt = up - Machine.now ctx in
        if dt > 0 then Machine.sleep ctx dt;
        false
    | None ->
        let lat = Slo.record slo ~intended:req.intended ~completed in
        Hashtbl.replace results req.id (R_served { completed; latency_us = lat });
        Stats.Histogram.record slices.(slice_of req.intended) lat;
        true
  in
  (* The fleet dispatcher models the outside world: arrivals carry
     absolute fleet-clock timestamps, released whatever the host is
     doing. The balancer never dispatches arrivals into this host's
     blackout windows, so everything lost here was admitted before a
     crash. *)
  let f =
    Serve.run_rig rig
      {
        Serve.count = Array.length arrivals;
        intended = (fun ~ready:_ i -> arrivals.(i).a_intended);
        id = (fun i -> arrivals.(i).a_id);
        cls = (fun i -> arrivals.(i).a_cls);
      }
      ~complete
  in
  List.iter
    (fun ((r : Squeue.req), why, at) ->
      Hashtbl.replace results r.id (R_shed { why; at }))
    (Squeue.shed_log queue);
  (* ids are unique, so every arrival has exactly one result *)
  let complete_results = Hashtbl.length results = Array.length arrivals in
  let phases = Runtime.revoker_records rt in
  let stw_total, stw_max =
    List.fold_left
      (fun (t, mx) p ->
        (t + p.Revoker.stw_cycles, max mx p.Revoker.stw_cycles))
      (0, 0) phases
  in
  let resumes, crash_retries =
    match rt.Runtime.revoker with
    | Some rv ->
        let rs = Revoker.recovery_stats rv in
        (rs.Revoker.epoch_resumes, rs.Revoker.sweep_crash_retries)
    | None -> (0, 0)
  in
  let h_results =
    Hashtbl.fold (fun id r acc -> (id, r) :: acc) results []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> Array.of_list
  in
  {
    h_host = cfg.host;
    h_arrivals = Array.length arrivals;
    h_served = Slo.served slo;
    h_shed_depth = Squeue.shed_depth queue;
    h_shed_deadline = Squeue.shed_deadline queue;
    h_shed_brownout = Squeue.shed_brownout queue;
    h_lost = f.Serve.lost;
    h_brownout_shifts = Squeue.brownout_shifts queue;
    h_violations = Slo.violations slo;
    h_hist = Slo.histogram slo;
    h_slices = slices;
    h_results;
    h_wall_cycles = f.Serve.wall_end;
    h_epochs = List.length phases;
    h_stw_pause_us = Cost.cycles_to_us stw_total;
    h_max_pause_us = Cost.cycles_to_us stw_max;
    h_epoch_resumes = resumes;
    h_sweep_crash_retries = crash_retries;
    h_chaos_injected = (match chaos with Some c -> Chaos.injected c | None -> 0);
    h_governor = Option.map Governor.stats f.Serve.governor;
    h_clean = f.Serve.rig_clean && complete_results;
    h_report =
      (if complete_results then f.Serve.rig_report
       else
         Printf.sprintf "%shost %d: %d results for %d arrivals\n"
           f.Serve.rig_report cfg.host (Hashtbl.length results)
           (Array.length arrivals));
  }
