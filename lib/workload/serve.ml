module Capability = Cheri.Capability
module Machine = Sim.Machine
module Prng = Sim.Prng
module Cost = Sim.Cost
module Trace = Sim.Trace
module Runtime = Ccr.Runtime
module Loadgen = Service.Loadgen
module Squeue = Service.Squeue
module Slo = Service.Slo
module Governor = Service.Governor
module Sanitizer = Analysis.Sanitizer
module Race = Analysis.Race

type config = {
  pattern : Loadgen.pattern;
  requests : int;
  servers : int;
  queue_depth : int;
  deadline_us : float option;
  target_p99_us : float;
  session_slots : int;
  temps_per_req : int;
  compute_per_req : int;
  seed : int;
  check : bool;
}

let default_config =
  {
    pattern = Loadgen.Poisson 20_000.0;
    requests = 6_000;
    servers = 2;
    queue_depth = 64;
    deadline_us = None;
    target_p99_us = 1_000.0;
    session_slots = 20_000;
    temps_per_req = 3;
    compute_per_req = 30_000;
    seed = 11;
    check = false;
  }

type outcome = {
  result : Result.t;
  offered : int;
  served : int;
  shed_depth : int;
  shed_deadline : int;
  slo : Slo.t;
  governor : Governor.stats option;
  clean : bool;
  report : string;
}

(* ---- the rig ---- *)

type arrivals = {
  count : int;
  intended : ready:int -> int -> int;
  id : int -> int;
  cls : int -> int;
}

type rig = {
  cfg : config;
  label : string;
  governed : bool;
  rt : Runtime.t;
  queue : Squeue.t;
  slo : Slo.t;
  checkers : (Sanitizer.t * Race.t) option;
}

type finished = {
  wall_end : int;
  server_threads : Machine.thread list;
  governor : Governor.t option;
  lost : int;
  rig_clean : bool;
  rig_report : string;
}

let runtime r = r.rt
let queue r = r.queue
let slo r = r.slo

let r_work = 1

(* One request: unmarshal temporaries, touch session state, compute,
   respond, free — the same allocation texture as the gRPC surrogate so
   the revoker has capability-bearing pages to care about. *)
let process_request cfg rt ctx rng regs sessions =
  let temps =
    Array.init cfg.temps_per_req (fun i ->
        let c = Runtime.malloc rt ctx (128 + (Prng.int rng 56 * 16)) in
        Machine.store_u64 ctx c (Int64.of_int i);
        let prev = Sim.Regfile.get regs r_work in
        if Capability.tag prev && Capability.length c >= 32 then
          Machine.store_cap ctx (Capability.incr_addr c 16) prev;
        Sim.Regfile.set regs r_work c;
        c)
  in
  for _ = 1 to 2 do
    match Objtable.random_live sessions rng ~hot:0.1 ~weight:0.5 with
    | None -> ()
    | Some slot ->
        let c = Objtable.get sessions ctx slot in
        if Capability.tag c then begin
          Sim.Regfile.set regs r_work c;
          ignore (Machine.load_u64 ctx c);
          Machine.store_u64 ctx (Capability.incr_addr c 8) 7L;
          if Prng.int rng 100 = 0 then begin
            let nv = Runtime.malloc rt ctx 256 in
            Machine.store_u64 ctx nv 1L;
            Objtable.put sessions ctx slot nv ~size:256;
            Runtime.free rt ctx c;
            Sim.Regfile.set regs r_work Capability.null
          end
        end
  done;
  Machine.charge ctx cfg.compute_per_req;
  Array.iter (fun c -> Runtime.free rt ctx c) temps;
  Sim.Regfile.set regs r_work Capability.null

(* Servers round-robin over cores 2, 3, 1: the first two land where the
   gRPC surrogate puts them, with the revoker sharing core 3 so
   revocation competes with foreground service. Core 0 is the
   generator's. *)
let server_core i = [| 2; 3; 1 |].(i mod 3)

(* Per-class deadline: the base budget stretched by the class factor
   (critical 1x, normal 4x, background none — batch traffic is never
   deadline-shed). *)
let class_deadline deadline cls =
  match deadline with
  | None -> None
  | Some d ->
      Option.map
        (fun f -> int_of_float (float_of_int d *. f))
        (Loadgen.deadline_factor (Loadgen.cls_of_code cls))

let create_rig ~label ~heap_bytes ?policy ?recovery ?tracer ?on_runtime
    ?brownout ~governed cfg mode =
  if cfg.servers < 1 then
    invalid_arg "Serve.create_rig: need at least one server";
  let mconfig =
    {
      Machine.default_config with
      heap_bytes;
      mem_bytes = heap_bytes + (heap_bytes / 16) + (8 * 1024 * 1024);
      seed = cfg.seed;
    }
  in
  let rt =
    Runtime.create ~config:mconfig ?policy ?recovery ~revoker_core:3 mode
  in
  let m = rt.Runtime.machine in
  let tracer =
    match tracer with
    | None when cfg.check -> Some (Trace.create ~capacity:(1 lsl 16) ())
    | t -> t
  in
  Machine.attach_tracer m tracer;
  (* the checkers subscribe losslessly, and a worker domain must never
     print: silence the ring's drop warning *)
  if cfg.check then
    Option.iter (fun t -> Trace.set_warn_on_drop t false) tracer;
  let checkers =
    if cfg.check then
      let san = Sanitizer.attach ?revoker:rt.Runtime.revoker m in
      Some (san, Race.attach m)
    else None
  in
  Option.iter (fun f -> f rt) on_runtime;
  let queue = Squeue.create m ~max_depth:cfg.queue_depth ?brownout () in
  let slo = Slo.create ~target_p99_us:cfg.target_p99_us () in
  { cfg; label; governed; rt; queue; slo; checkers }

let run_rig r arrivals ~complete =
  let cfg = r.cfg and m = r.rt.Runtime.machine in
  let deadline = Option.map Cost.cycles_of_us cfg.deadline_us in
  let gov =
    if r.governed && r.rt.Runtime.revoker <> None then
      Some
        (Governor.install ~target_p99_us:cfg.target_p99_us
           ~p99:(fun () -> Slo.p99_estimate r.slo)
           ~brownout:(fun () -> Squeue.brownout_active r.queue)
           r.rt
           ~depth:(fun () -> Squeue.depth r.queue)
           ())
    else None
  in
  let sessions = ref None and init_cv = Machine.condvar () in
  let finished_servers = ref 0 and wall_end = ref 0 in
  let lost_in_service = ref 0 in
  (* The load generator models the outside world: spawned non-user so a
     stop-the-world pause cannot park it. It releases requests at their
     intended arrival times regardless of server progress — during a
     pause the queue (and the shed count) grows, and every served
     straggler's latency is measured from its intended arrival. *)
  let _generator =
    Machine.spawn m ~name:(r.label ^ "-loadgen") ~core:0 ~user:false
      (fun ctx ->
        while !sessions = None do
          Machine.wait ctx init_cv
        done;
        let ready = Machine.now ctx in
        for i = 0 to arrivals.count - 1 do
          let intended = arrivals.intended ~ready i in
          let dt = intended - Machine.now ctx in
          if dt > 0 then Machine.sleep ctx dt;
          Slo.note_offered r.slo;
          let cls = arrivals.cls i in
          ignore
            (Squeue.offer r.queue ctx
               {
                 Squeue.id = arrivals.id i;
                 intended;
                 cls;
                 deadline = class_deadline deadline cls;
                 tenant = 0;
               })
        done;
        Squeue.close r.queue ctx)
  in
  let server id =
    Machine.spawn m
      ~name:(Printf.sprintf "%s-server-%d" r.label id)
      ~core:(server_core id)
      (fun ctx ->
        let regs = Machine.regs (Machine.self ctx) in
        let rng = Prng.create ~seed:(cfg.seed * 31 * (id + 1)) in
        if id = 0 then begin
          let table = Objtable.create r.rt ctx ~slots:cfg.session_slots in
          for slot = 0 to cfg.session_slots - 1 do
            let c = Runtime.malloc r.rt ctx 256 in
            Machine.store_u64 ctx c (Int64.of_int slot);
            Objtable.put table ctx slot c ~size:256
          done;
          sessions := Some table;
          Machine.broadcast ctx init_cv
        end
        else
          while !sessions = None do
            Machine.wait ctx init_cv
          done;
        let sessions = Option.get !sessions in
        let rec serve () =
          (* An idle server is the trough signal: give the governor a
             chance to flush quarantine into the lull. *)
          if Squeue.depth r.queue = 0 then
            Option.iter (fun g -> Governor.maybe_eager g ctx) gov;
          match Squeue.take r.queue ctx with
          | None -> ()
          | Some req ->
              let started = Machine.now ctx in
              process_request cfg r.rt ctx rng regs sessions;
              if not (complete ctx req ~started ~completed:(Machine.now ctx))
              then incr lost_in_service;
              serve ()
        in
        serve ();
        incr finished_servers;
        if !finished_servers = cfg.servers then begin
          wall_end := Machine.now ctx;
          Option.iter Governor.uninstall gov;
          Runtime.finish r.rt ctx
        end)
  in
  let server_threads = List.init cfg.servers server in
  Machine.run m;
  let served = Slo.served r.slo and offered = Slo.offered r.slo in
  let shed = Squeue.shed r.queue in
  let lost = Squeue.lost r.queue + !lost_in_service in
  let accounted = served + shed + lost = offered && offered = arrivals.count in
  let report = Buffer.create 0 in
  let rfmt = Format.formatter_of_buffer report in
  let clean =
    match r.checkers with
    | Some (san, race) ->
        Sanitizer.finish san;
        if not (Sanitizer.ok san) then Sanitizer.report rfmt san;
        if not (Race.ok race) then Race.report rfmt race;
        Sanitizer.ok san && Race.ok race && accounted
    | None -> accounted
  in
  if not accounted then
    Format.fprintf rfmt
      "%s: accounting drift: served %d + shed %d + lost %d <> offered %d \
       (arrivals %d)@."
      r.label served shed lost offered arrivals.count;
  Format.pp_print_flush rfmt ();
  {
    wall_end = !wall_end;
    server_threads;
    governor = gov;
    lost;
    rig_clean = clean;
    rig_report = Buffer.contents report;
  }

(* ---- the single-host workload ---- *)

let run ?(config = default_config) ?tracer ?on_runtime ?(governed = false)
    ~mode () =
  let cfg = config in
  let r =
    create_rig ~label:"serve" ~heap_bytes:(24 * 1024 * 1024) ?tracer
      ?on_runtime ~governed cfg mode
  in
  let offsets =
    Loadgen.schedule
      { Loadgen.pattern = cfg.pattern; requests = cfg.requests; seed = cfg.seed }
  in
  let latencies = ref [] in
  (* requests are released relative to the instant the session table is
     ready, all in class 0 (critical: the base deadline, unstretched) *)
  let f =
    run_rig r
      {
        count = Array.length offsets;
        intended = (fun ~ready i -> ready + offsets.(i));
        id = Fun.id;
        cls = (fun _ -> 0);
      }
      ~complete:(fun _ req ~started:_ ~completed ->
        let lat = Slo.record r.slo ~intended:req.Squeue.intended ~completed in
        latencies := lat :: !latencies;
        true)
  in
  let m = r.rt.Runtime.machine in
  let totals = Machine.totals m in
  let slo = r.slo and wall_end = f.wall_end in
  let result =
    {
      Result.workload = "serve";
      mode = Runtime.mode_name mode;
      wall_cycles = wall_end;
      cpu_cycles = totals.Machine.cpu_cycles;
      app_cpu_cycles =
        List.fold_left
          (fun a th -> a + Machine.thread_cpu_cycles th)
          0 f.server_threads;
      bus_total = totals.Machine.bus_transactions;
      bus_app_core =
        Machine.bus_transactions_of_core m 2 + Machine.bus_transactions_of_core m 3;
      peak_rss_pages = r.rt.Runtime.alloc.Alloc.Backend.peak_rss_pages ();
      clg_faults = totals.Machine.clg_faults;
      ops_done = Slo.served slo;
      latencies_us = Array.of_list (List.rev !latencies);
      latencies_closed_us = [||];
      throughput =
        (if wall_end = 0 then 0.0
         else
           float_of_int (Slo.served slo)
           /. (float_of_int wall_end /. Cost.clock_hz));
      scrub_bytes = r.rt.Runtime.alloc.Alloc.Backend.scrub_bytes ();
      mrs = Runtime.mrs_stats r.rt;
      phases = Runtime.revoker_records r.rt;
    }
  in
  {
    result;
    offered = Slo.offered slo;
    served = Slo.served slo;
    shed_depth = Squeue.shed_depth r.queue;
    shed_deadline = Squeue.shed_deadline r.queue;
    slo;
    governor = Option.map Governor.stats f.governor;
    clean = f.rig_clean;
    report = f.rig_report;
  }
