(* The benchmark's workloads: named lists of simulated cells, each run
   through the repository's public entry points, with a digest of its
   simulated outputs and the accounting identities it must satisfy. *)

module Spec = Workload.Spec
module Serve = Workload.Serve
module Result = Workload.Result
module Runtime = Ccr.Runtime
module Host = Fleet.Host

let reloaded = Runtime.Safe Ccr.Revoker.Reloaded
let cornucopia = Runtime.Safe Ccr.Revoker.Cornucopia

type kind =
  | Spec_cell of { profile : string; scale : float }  (** under Reloaded *)
  | Serve_cell of { mode : Runtime.mode; governed : bool }
  | Fleet_cell

type cell = { id : string; kind : kind }

type workload = { name : string; why : string; cells : cell list }

let spec profile scale =
  {
    id = Printf.sprintf "%s/reloaded@%g" profile scale;
    kind = Spec_cell { profile; scale };
  }

let serve mode governed =
  {
    id =
      Printf.sprintf "%s/gov-%s" (Runtime.mode_name mode)
        (if governed then "on" else "off");
    kind = Serve_cell { mode; governed };
  }

let workloads =
  [
    {
      name = "spec-churn";
      why =
        "omnetpp+xalancbmk, reloaded, scale 0.6: highest churn, so alloc, \
         mrs quarantine, CLG traps and page sweeps do the work";
      cells = [ spec "omnetpp" 0.6; spec "xalancbmk" 0.6 ];
    };
    {
      name = "spec-stream";
      why =
        "bzip2+sjeng, reloaded, scale 2.0: never revoke, many accesses per \
         op, so the tagmem/vm/machine access path works while alloc and \
         core idle";
      cells = [ spec "bzip2" 2.0; spec "sjeng" 2.0 ];
    };
    {
      name = "serve-knee";
      why =
        "Serve at 110k req/s Poisson, 2 servers, cornucopia and reloaded, \
         governor off/on: the 5.3 knee stressing scheduler, STW, Squeue, \
         Slo and governor";
      cells =
        [
          serve cornucopia false;
          serve cornucopia true;
          serve reloaded false;
          serve reloaded true;
        ];
    };
    {
      name = "fleet-rolling";
      why =
        "Fleet.run flat/3 round-robin rolling restarts, budgeted retries \
         over two rounds, governed reloaded, diurnal 120k qps: the only \
         lib/fleet workload";
      cells = [ { id = "flat3/rr/rolling/budgeted/r2"; kind = Fleet_cell } ];
    };
  ]

let find_workload name = List.find_opt (fun w -> w.name = name) workloads

(* ---- configurations ---- *)

let serve_requests = 60_000

let serve_config seed =
  {
    Serve.default_config with
    pattern = Service.Loadgen.Poisson 110_000.0;
    requests = serve_requests;
    seed;
  }

let fleet_requests = 30_000

let fleet_config seed =
  let qps = 120_000.0 in
  let retry =
    match Fleet.Retry.policy_of_name "budgeted" with
    | Some p -> p
    | None -> invalid_arg "perfbench: no budgeted retry policy"
  in
  {
    Fleet.default_config with
    pattern =
      Service.Loadgen.Diurnal
        { low = 0.5 *. qps; high = 1.5 *. qps; period_us = 4_000.0 };
    requests = fleet_requests;
    mode = reloaded;
    governed = true;
    (* two planning rounds: the retries of the first are simulated, and
       every seed does about the same work (uncapped, seeds need one to
       four rounds, so host time varies fourfold between seeds) *)
    resilience = { Fleet.default_resilience with retry; max_rounds = 2 };
    seed;
  }

(* The per-host configuration Fleet.run builds for [host], rebuilt from
   the public plan so one shard (or an empty one, for set-up) can be run
   alone through Host.run. *)
let host_config (cfg : Fleet.config) ~origin ~horizon ~windows host =
  {
    Host.host;
    mode = cfg.mode;
    governed = cfg.governed;
    servers = cfg.servers_per_host;
    queue_depth = cfg.queue_depth;
    deadline_us = cfg.deadline_us;
    brownout = cfg.resilience.brownout;
    target_p99_us = cfg.target_p99_us;
    session_slots = cfg.session_slots;
    temps_per_req = cfg.temps_per_req;
    compute_per_req = cfg.compute_per_req;
    heap_mb = cfg.heap_mb;
    seed = (cfg.seed * 1_000_003) + (host * 8191) + 1;
    check = false;
    policy = cfg.policy;
    recovery = cfg.recovery;
    windows = Fleet.Failplan.host_windows windows ~host;
    slices = cfg.slices;
    origin;
    horizon;
  }

let shard_config cfg (d : Fleet.dispatch) host =
  host_config cfg
    ~origin:(Sim.Cost.cycles_of_us cfg.Fleet.warmup_us)
    ~horizon:d.Fleet.d_horizon ~windows:d.Fleet.d_windows host

(* ---- outcomes ---- *)

type outcome = {
  ops : int;  (** SPEC ops, offered requests, or fleet send attempts *)
  digest : string;
  broken : string option;  (** the accounting identity that failed *)
  mrs : Ccr.Mrs.stats option;
  offered : int;
  shed : int;
  defers : int;  (** governor-deferred epochs *)
  rounds : int;
}

let digest_of fields =
  String.sub (Digest.to_hex (Digest.string (String.concat "|" fields))) 0 16

let result_fields (r : Result.t) =
  let i = string_of_int in
  [
    i r.Result.wall_cycles;
    i r.cpu_cycles;
    i r.app_cpu_cycles;
    i r.bus_total;
    i r.bus_app_core;
    i r.clg_faults;
    i r.ops_done;
    i r.peak_rss_pages;
    i r.scrub_bytes;
  ]
  @
  match r.mrs with
  | None -> [ "-" ]
  | Some s ->
      [
        i s.Ccr.Mrs.revocations;
        i s.sum_freed_bytes;
        i s.blocked_allocs;
        i s.throttled_allocs;
        i s.abandoned_bytes;
      ]

let blank =
  {
    ops = 0;
    digest = "";
    broken = None;
    mrs = None;
    offered = 0;
    shed = 0;
    defers = 0;
    rounds = 0;
  }

let run_spec ?tracer ?on_runtime ~interp ~seed ~zero profile scale =
  let p = Workload.Profile.find profile in
  let ops_scale = if zero then 0.0 else scale in
  let r =
    Spec.run ~seed ~ops_scale ?tracer ?on_runtime ~interp ~mode:reloaded p
  in
  let want = int_of_float (float_of_int p.Workload.Profile.ops *. ops_scale) in
  {
    blank with
    ops = r.Result.ops_done;
    digest = digest_of (result_fields r);
    broken =
      (if r.Result.ops_done = want then None
       else
         Some (Printf.sprintf "ops_done %d <> requested %d" r.ops_done want));
    mrs = r.mrs;
  }

let run_serve ?tracer ?on_runtime ~seed ~zero mode governed =
  let config = serve_config seed in
  let config = if zero then { config with requests = 0 } else config in
  let o = Serve.run ~config ?tracer ?on_runtime ~governed ~mode () in
  let shed = o.Serve.shed_depth + o.shed_deadline in
  let gov = o.governor in
  let pct p =
    match Service.Slo.percentile o.slo p with
    | Some v -> Printf.sprintf "%h" v
    | None -> "-"
  in
  let i = string_of_int in
  let gov_fields =
    match gov with
    | None -> [ "-" ]
    | Some g ->
        Service.Governor.
          [
            i g.epochs_deferred;
            i g.epochs_forced;
            i g.eager_flushes;
            i g.defer_cycles;
            i g.quanta_granted;
          ]
  in
  {
    blank with
    ops = o.offered;
    digest =
      digest_of
        (result_fields o.result
        @ [
            i o.offered;
            i o.served;
            i o.shed_depth;
            i o.shed_deadline;
            i (Service.Slo.violations o.slo);
            pct 50.0;
            pct 99.0;
            pct 99.9;
          ]
        @ gov_fields);
    broken =
      (if o.served + shed <> o.offered || o.offered <> config.requests then
         Some
           (Printf.sprintf "served %d + shed %d <> offered %d (requests %d)"
              o.served shed o.offered config.requests)
       else None);
    mrs = o.result.Result.mrs;
    offered = o.offered;
    shed;
    defers =
      (match gov with
      | Some g -> g.Service.Governor.epochs_deferred
      | None -> 0);
  }

let fleet_fields (o : Fleet.outcome) =
  let i = string_of_int in
  [
    i o.Fleet.offered;
    i o.served;
    i o.retried_ok;
    i o.hedged_ok;
    i o.shed_depth;
    i o.shed_deadline;
    i o.shed_brownout;
    i o.lost;
    i o.redistributed;
    i o.lb_dropped;
    i o.violations;
    i o.makespan_cycles;
    i o.epochs;
    i o.epoch_resumes;
    i o.sweep_crash_retries;
    i o.attempts;
    i o.retries_sent;
    i o.hedges_sent;
    i o.dup_served;
    i o.budget_exhausted;
    i o.breaker_trips;
    i o.rounds;
    Printf.sprintf "%h" o.goodput_rps;
    Printf.sprintf "%h" o.max_pause_us;
  ]
  @ List.map
      (fun (h : Host.outcome) ->
        Printf.sprintf "%d:%d:%d:%d" h.Host.h_wall_cycles h.h_served h.h_lost
          h.h_epochs)
      o.hosts

(* Set-up for the fleet: every host's machine, runtime and session table,
   with no arrivals. *)
let fleet_setup cfg =
  let origin = Sim.Cost.cycles_of_us cfg.Fleet.warmup_us in
  for host = 0 to cfg.Fleet.hosts - 1 do
    ignore
      (Host.run
         (host_config cfg ~origin ~horizon:(origin + 1) ~windows:[] host)
         ~arrivals:[||])
  done

let run_fleet ~seed ~zero =
  let cfg = fleet_config seed in
  if zero then begin
    fleet_setup cfg;
    blank
  end
  else
    let o = Fleet.run ~jobs:1 cfg in
    {
      blank with
      ops = o.Fleet.attempts;
      digest = digest_of (fleet_fields o);
      broken =
        (if o.clean then None else Some "fleet accounting identity broken");
      offered = o.offered;
      shed = o.shed_depth + o.shed_deadline + o.shed_brownout;
      defers =
        List.fold_left
          (fun a (h : Host.outcome) ->
            match h.Host.h_governor with
            | Some g -> a + g.Service.Governor.epochs_deferred
            | None -> a)
          0 o.hosts;
      rounds = o.rounds;
    }

(* [zero] builds the cell with no simulated work: machine, runtime and
   object or session table only. The fleet runs without a tracer:
   Fleet.run takes none. *)
let run ?tracer ?on_runtime ?(interp = Spec.Compiled) ?(zero = false) ~seed
    cell =
  match cell.kind with
  | Spec_cell { profile; scale } ->
      run_spec ?tracer ?on_runtime ~interp ~seed ~zero profile scale
  | Serve_cell { mode; governed } ->
      run_serve ?tracer ?on_runtime ~seed ~zero mode governed
  | Fleet_cell -> run_fleet ~seed ~zero

(* ---- expected digests ---- *)

(* [expected.tsv]: one [cell-id <TAB> seed <TAB> digest] line per cell
   and seed, produced by [--gen-expected] with the reference SPEC
   interpreter. *)
let load_expected path =
  let tbl = Hashtbl.create 256 in
  (if Sys.file_exists path then
     let ic = open_in path in
     (try
        while true do
          match String.split_on_char '\t' (input_line ic) with
          | [ id; seed; d ] -> Hashtbl.replace tbl (id, int_of_string seed) d
          | _ -> ()
        done
      with End_of_file -> ());
     close_in ic);
  tbl
