(* SPEC trace-engine equivalence tests.

   [Spec.app_body] addresses every access as a capability plus a virtual
   address ([Machine.*_at]), and the object table addresses a slot as its
   chunk capability plus an address. That must be *bit-for-bit*
   equivalent to the per-op engine it replaced, which moved a capability
   with [Capability.set_addr] for every access: same Result, same
   simulated cycles, same per-core cache and bus state, same trace
   stream — for any profile, seed, temporal-safety mode and allocator,
   with chaos hooks or a load filter armed, and in forked tenants. A
   single diverging cycle anywhere in the run shifts every later event
   time and fails the comparison.

   [Reference] is a verbatim copy of that per-op engine, the [slot_cap]
   path of its object table (host-only size bookkeeping dropped) and the
   [Spec.run] machine set-up around it. It is the specification. *)

module M = Sim.Machine
module Trace = Sim.Trace
module Runtime = Ccr.Runtime
module Revoker = Ccr.Revoker
module Profile = Workload.Profile

let check = Alcotest.(check bool)

(* ---- the reference engine ---- *)

module Reference = struct
  module Capability = Cheri.Capability
  module Machine = Sim.Machine
  module Prng = Sim.Prng

  let granule = 16

  module Objtable = struct
    let chunk_slots = 256

    type t = {
      chunks : Capability.t array;
      nslots : int;
      live : Bytes.t;
      mutable nlive : int;
    }

    let create rt ctx ~slots =
      let nchunks = (slots + chunk_slots - 1) / chunk_slots in
      let chunks =
        Array.init nchunks (fun _ -> Runtime.malloc rt ctx (chunk_slots * granule))
      in
      { chunks; nslots = slots; live = Bytes.make slots '\000'; nlive = 0 }

    let is_live t i = Bytes.get t.live i <> '\000'

    let slot_cap t i =
      let chunk = t.chunks.(i / chunk_slots) in
      Capability.set_addr chunk (Capability.base chunk + (i mod chunk_slots * granule))

    let get t ctx i = Machine.load_cap ctx (slot_cap t i)

    let put t ctx i c =
      Machine.store_cap ctx (slot_cap t i) c;
      if not (is_live t i) then begin
        Bytes.set t.live i '\001';
        t.nlive <- t.nlive + 1
      end

    let kill t i =
      if is_live t i then begin
        Bytes.set t.live i '\000';
        t.nlive <- t.nlive - 1
      end

    let probe t rng ~lo ~hi ~want =
      let span = hi - lo in
      if span <= 0 then None
      else begin
        let start = lo + Prng.int rng span in
        let rec go i n =
          if n = 0 then None
          else if is_live t i = want then Some i
          else go (if i + 1 >= hi then lo else i + 1) (n - 1)
        in
        go start span
      end

    let random_live t rng ~hot ~weight =
      if t.nlive = 0 then None
      else begin
        let hot_slots = int_of_float (hot *. float_of_int t.nslots) in
        let use_hot = hot_slots > 0 && Prng.float rng 1.0 < weight in
        match
          if use_hot then probe t rng ~lo:0 ~hi:hot_slots ~want:true else None
        with
        | Some i -> Some i
        | None -> probe t rng ~lo:0 ~hi:t.nslots ~want:true
      end

    let random_dead t rng =
      if t.nlive >= t.nslots then None else probe t rng ~lo:0 ~hi:t.nslots ~want:false
  end

  let r_work = 1
  let r_chase = 2
  let r_recent = 3

  let init_body (p : Profile.t) ctx rng regs cap =
    let granules = Capability.length cap / granule in
    let stores = min granules 32 in
    let base = Capability.base cap in
    for _ = 1 to stores do
      let g = Prng.int rng granules in
      let slot = Capability.set_addr cap (base + (g * granule)) in
      if Prng.float rng 1.0 < p.Profile.ptr_density then begin
        let v = Sim.Regfile.get regs r_recent in
        if Capability.tag v then Machine.store_cap ctx slot v
        else Machine.store_u64 ctx slot (Int64.of_int g)
      end
      else Machine.store_u64 ctx slot (Int64.of_int g)
    done

  let alloc_into (p : Profile.t) rt ctx rng regs table slot =
    let size = Profile.sample rng p.Profile.size_c in
    let c = Runtime.malloc rt ctx size in
    Sim.Regfile.set regs r_work c;
    init_body p ctx rng regs c;
    Objtable.put table ctx slot c;
    Sim.Regfile.set regs r_recent c

  let access_op (p : Profile.t) ctx rng regs table =
    match
      Objtable.random_live table rng ~hot:p.Profile.hot_fraction
        ~weight:p.Profile.hot_weight
    with
    | None -> ()
    | Some slot ->
        let c = Objtable.get table ctx slot in
        if Capability.tag c then begin
          Sim.Regfile.set regs r_work c;
          Sim.Regfile.set regs r_recent c;
          let len = Capability.length c in
          let base = Capability.base c in
          let window = min len 32768 in
          let word_at g = Capability.set_addr c (base + (g * granule)) in
          for _ = 1 to p.Profile.reads_per_op do
            ignore (Machine.load_u64 ctx (word_at (Prng.int rng (window / granule))))
          done;
          for _ = 1 to p.Profile.writes_per_op do
            Machine.store_u64 ctx
              (word_at (Prng.int rng (window / granule)))
              (Int64.of_int slot)
          done;
          let cursor = ref c in
          for _ = 1 to p.Profile.chase_depth do
            let cur = !cursor in
            let clen = Capability.length cur in
            if clen >= granule then begin
              let g = Prng.int rng (clen / granule) in
              let addr = Capability.base cur + (g * granule) in
              let next = Machine.load_cap ctx (Capability.set_addr cur addr) in
              if Capability.tag next && Capability.can_load next then begin
                Sim.Regfile.set regs r_chase next;
                ignore
                  (Machine.load_u64 ctx (Capability.set_addr next (Capability.base next)));
                cursor := next
              end
              else Machine.charge ctx Sim.Cost.alu
            end
          done
        end

  let churn_op (p : Profile.t) rt ctx rng regs table ~realloc =
    match Objtable.random_live table rng ~hot:1.0 ~weight:0.0 with
    | None -> ()
    | Some slot ->
        let c = Objtable.get table ctx slot in
        if Capability.tag c then begin
          Sim.Regfile.set regs r_work c;
          Runtime.free rt ctx c;
          if Prng.bool rng then Sim.Regfile.set regs r_work Capability.null;
          if Capability.equal (Sim.Regfile.get regs r_recent) c then
            Sim.Regfile.set regs r_recent Capability.null;
          Objtable.kill table slot;
          if realloc then alloc_into p rt ctx rng regs table slot
        end
        else Objtable.kill table slot

  let birth_op (p : Profile.t) rt ctx rng regs table =
    match Objtable.random_dead table rng with
    | None -> ()
    | Some slot -> alloc_into p rt ctx rng regs table slot

  let app_body (p : Profile.t) rt ~rng ~ops ~ops_done ctx =
    let regs = Machine.regs (Machine.self ctx) in
    let table = Objtable.create rt ctx ~slots:p.Profile.slots in
    let initial =
      int_of_float (p.Profile.target_live *. float_of_int p.Profile.slots)
    in
    for slot = 0 to initial - 1 do
      alloc_into p rt ctx rng regs table slot
    done;
    for _ = 1 to ops do
      let x = Prng.float rng 1.0 in
      if x < p.Profile.churn then churn_op p rt ctx rng regs table ~realloc:true
      else if x < p.Profile.churn +. p.Profile.kill_only then
        churn_op p rt ctx rng regs table ~realloc:false
      else if x < p.Profile.churn +. p.Profile.kill_only +. p.Profile.birth_only
      then birth_op p rt ctx rng regs table
      else access_op p ctx rng regs table;
      if p.Profile.compute_per_op > 0 then
        Machine.charge ctx p.Profile.compute_per_op;
      incr ops_done
    done

  (* [Spec.run]'s machine set-up *)
  let run ?(seed = 1) ?(ops_scale = 1.0) ?policy ?(non_temporal = false)
      ?(allocator = Runtime.Snmalloc) ?tracer ?on_runtime ~mode (p : Profile.t) =
    let heap_bytes = Profile.heap_bytes_needed p in
    let config =
      {
        Machine.default_config with
        heap_bytes;
        mem_bytes = heap_bytes + (heap_bytes / 16) + (8 * 1024 * 1024);
        seed;
      }
    in
    let rt =
      Runtime.create ~config ?policy ~revoker_core:2 ~non_temporal ~allocator mode
    in
    let m = rt.Runtime.machine in
    Machine.attach_tracer m tracer;
    (match on_runtime with Some f -> f rt | None -> ());
    let rng = Prng.create ~seed:(seed * 7919) in
    let ops = int_of_float (float_of_int p.Profile.ops *. ops_scale) in
    let wall_end = ref 0 in
    let ops_done = ref 0 in
    let app =
      Machine.spawn m ~name:"app" ~core:3 (fun ctx ->
          app_body p rt ~rng ~ops ~ops_done ctx;
          wall_end := Machine.now ctx;
          Runtime.finish rt ctx)
    in
    Machine.run m;
    let totals = Machine.totals m in
    {
      Workload.Result.workload = p.Profile.name;
      mode = Runtime.mode_name mode;
      wall_cycles = !wall_end;
      cpu_cycles = totals.Machine.cpu_cycles;
      app_cpu_cycles = Machine.thread_cpu_cycles app;
      bus_total = totals.Machine.bus_transactions;
      bus_app_core = Machine.bus_transactions_of_core m 3;
      peak_rss_pages = rt.Runtime.alloc.Alloc.Backend.peak_rss_pages ();
      clg_faults = totals.Machine.clg_faults;
      ops_done = !ops_done;
      latencies_us = [||];
      latencies_closed_us = [||];
      throughput = 0.0;
      scrub_bytes = rt.Runtime.alloc.Alloc.Backend.scrub_bytes ();
      mrs = Runtime.mrs_stats rt;
      phases = Runtime.revoker_records rt;
    }

  (* [Tenant.run]'s process set-up, two tenants with the default round-robin
     scheduler; returns each tenant's op count. *)
  let two_tenants ~seed ~tracer ~on_os ~mode (p : Profile.t) =
    let heap_bytes = Profile.heap_bytes_needed p in
    let config =
      {
        Machine.default_config with
        heap_bytes;
        mem_bytes = (2 * (heap_bytes + (heap_bytes / 16))) + (8 * 1024 * 1024);
        seed;
      }
    in
    let os =
      Os.create ~config ~sched:Os.Revsched.Round_robin ~revoker_core:2 mode
    in
    let m = Os.machine os in
    Machine.attach_tracer m (Some tracer);
    on_os os;
    Os.spawn_reaper os;
    let counters = [| ref 0; ref 0 |] in
    ignore
      (Machine.spawn m ~name:"init" ~core:0 (fun ctx ->
           Array.iteri
             (fun i core ->
               ignore
                 (Os.fork os ctx ~parent:(Os.init os)
                    ~name:(Printf.sprintf "tenant-%d" i)
                    ~core
                    (fun cctx proc ->
                      let rng = Prng.create ~seed:((seed * 7919) + Os.pid proc) in
                      app_body p (Os.runtime proc) ~rng ~ops:p.Profile.ops
                        ~ops_done:counters.(i) cctx;
                      Os.exit os cctx proc)))
             [| 3; 1 |];
           Os.wait_children os ctx;
           Os.shutdown os ctx));
    Machine.run m;
    Array.to_list (Array.map ( ! ) counters)
end

(* ---- observation ---- *)

type 'r observation = {
  o_result : 'r;
  o_totals : M.totals;
  o_caches : Tagmem.Cache.stats list; (* per core *)
  o_trace_total : int;
  o_trace_dropped : int;
  o_events : (int * int * int * string * int * int) list;
}

(* [run ~tracer ~machine] runs one simulation and hands its machine to
   [machine] before any thread runs. *)
let observe run =
  let tr = Trace.create ~capacity:65536 () in
  let mref = ref None in
  let r = run ~tracer:tr ~machine:(fun m -> mref := Some m) in
  let m = Option.get !mref in
  {
    o_result = r;
    o_totals = M.totals m;
    o_caches = List.init (M.num_cores m) (fun i -> M.cache_stats m i);
    o_trace_total = Trace.total tr;
    o_trace_dropped = Trace.dropped tr;
    o_events =
      List.map
        (fun e ->
          ( e.Trace.time,
            e.Trace.core,
            e.Trace.pid,
            Trace.kind_name e.Trace.kind,
            e.Trace.arg,
            e.Trace.arg2 ))
        (Trace.to_list tr);
  }

let equivalent ?allocator ?on_runtime ~seed ~mode p =
  let on_runtime machine rt =
    machine rt.Runtime.machine;
    Option.iter (fun f -> f rt) on_runtime
  in
  observe (fun ~tracer ~machine ->
      Reference.run ~seed ?allocator ~tracer ~on_runtime:(on_runtime machine)
        ~mode p)
  = observe (fun ~tracer ~machine ->
        Workload.Spec.run ~seed ?allocator ~tracer
          ~on_runtime:(on_runtime machine) ~mode p)

(* ---- fixed profiles ---- *)

let tiny name ~ops ~slots =
  { (Profile.find name) with Profile.ops; slots }

let reloaded = Runtime.Safe Revoker.Reloaded

let strategies =
  [
    ("baseline", Runtime.Baseline);
    ("paint+sync", Runtime.Safe Revoker.Paint_sync);
    ("cherivoke", Runtime.Safe Revoker.Cherivoke);
    ("cornucopia", Runtime.Safe Revoker.Cornucopia);
    ("reloaded", reloaded);
  ]

let test_spec_profiles_all_strategies () =
  let p = tiny "hmmer_retro" ~ops:2_500 ~slots:300 in
  List.iter
    (fun (name, mode) ->
      check ("hmmer_retro tiny, " ^ name) true (equivalent ~seed:1 ~mode p))
    strategies

let test_spec_profile_shapes () =
  (* distinct allocation/access shapes: pointer-chase-heavy mixture
     sizes (omnetpp), huge fixed objects in a tiny table (libquantum),
     near-zero churn (bzip2, no revocation pressure) *)
  List.iter
    (fun (name, ops, slots, mode) ->
      check name true (equivalent ~seed:3 ~mode (tiny name ~ops ~slots)))
    [
      ("omnetpp", 1_500, 500, reloaded);
      ("xalancbmk", 1_200, 400, Runtime.Safe Revoker.Cornucopia);
      ("libquantum", 600, 12, reloaded);
      ("bzip2", 500, 64, Runtime.Baseline);
    ]

let test_jemalloc_and_seeds () =
  let p = tiny "hmmer_retro" ~ops:1_500 ~slots:200 in
  List.iter
    (fun seed ->
      check
        (Printf.sprintf "jemalloc seed %d" seed)
        true
        (equivalent ~allocator:Runtime.Jemalloc ~seed ~mode:reloaded p);
      check
        (Printf.sprintf "snmalloc seed %d" seed)
        true
        (equivalent ~allocator:Runtime.Snmalloc ~seed
           ~mode:(Runtime.Safe Revoker.Cornucopia) p))
    [ 2; 7; 23 ]

let test_two_tenants () =
  let p = tiny "hmmer_retro" ~ops:1_500 ~slots:200 in
  let on_os machine os = machine (Os.machine os) in
  let a =
    observe (fun ~tracer ~machine ->
        Reference.two_tenants ~seed:4 ~tracer ~on_os:(on_os machine)
          ~mode:reloaded p)
  in
  let b =
    observe (fun ~tracer ~machine ->
        let r =
          Workload.Tenant.run ~seed:4 ~tenants:2 ~tracer ~on_os:(on_os machine)
            ~mode:reloaded p
        in
        List.map (fun t -> t.Workload.Tenant.t_ops) r.Workload.Tenant.per_tenant)
  in
  check "both tenants ran every op" true (a.o_result = [ 1_500; 1_500 ]);
  check "2-tenant equivalence" true (a = b)

(* ---- armed load filter and chaos hooks ---- *)

let test_cheriot_load_filter () =
  (* cheriot's load filter can strip live tags (hmmer_nph3 at this scale
     is a known tag-stripping case): the engine must then take the same
     untagged-slot paths as the reference *)
  let p = tiny "hmmer_nph3" ~ops:25_000 ~slots:6_300 in
  check "cheriot equivalence" true
    (equivalent ~seed:1 ~mode:(Runtime.Safe Revoker.Cheriot_filter) p)

let test_chaos_hooks () =
  (* a tag-read hook that corrupts every 512th read *)
  let p = tiny "hmmer_retro" ~ops:1_200 ~slots:200 in
  let on_runtime rt =
    let n = ref 0 in
    M.set_tag_read_hook rt.Runtime.machine
      (Some
         (fun ~pa:_ ->
           incr n;
           !n mod 512 = 0))
  in
  check "chaos-armed equivalence" true
    (equivalent ~on_runtime ~seed:5 ~mode:reloaded p)

(* ---- random profiles ---- *)

let size_dist_gen =
  QCheck.Gen.(
    let fixed = map (fun n -> Profile.Fixed (16 + n)) (int_bound 4080) in
    let uniform =
      map2
        (fun lo span -> Profile.Uniform (16 + lo, 16 + lo + span))
        (int_bound 1024) (int_bound 2048)
    in
    let weight = map (fun w -> 0.1 +. (float_of_int w /. 10.0)) (int_bound 30) in
    let mixture =
      let* n = int_range 2 3 in
      map
        (fun arms -> Profile.Mixture arms)
        (list_size (return n) (pair weight (oneof [ fixed; uniform ])))
    in
    oneof [ fixed; uniform; mixture ])

let profile_gen =
  QCheck.Gen.(
    let pct bound = map (fun n -> float_of_int n /. 100.0) (int_bound bound) in
    let* slots = int_range 8 300 in
    let* target_live = map (fun n -> float_of_int n /. 100.0) (int_range 10 100) in
    let* size = size_dist_gen in
    let* ops = int_range 200 1_500 in
    let* churn = pct 40 in
    let* kill_only = pct 10 in
    let* birth_only = pct 10 in
    let* ptr_density = pct 60 in
    let* reads_per_op = int_bound 6 in
    let* writes_per_op = int_bound 4 in
    let* chase_depth = int_bound 4 in
    let* hot_fraction = pct 50 in
    let* hot_weight = pct 100 in
    let* compute_per_op = int_bound 500 in
    return
      (Profile.make ~name:"random" ~slots ~target_live ~size ~ops ~churn
         ~kill_only ~birth_only ~ptr_density ~reads_per_op ~writes_per_op
         ~chase_depth ~hot_fraction ~hot_weight ~compute_per_op
         ~engages_revocation:true ()))

let case_arb =
  QCheck.make
    ~print:(fun ((p : Profile.t), mode, seed) ->
      Printf.sprintf
        "seed=%d mode=%s slots=%d live=%.2f ops=%d churn=%.2f kill=%.2f \
         birth=%.2f ptr=%.2f r=%d w=%d chase=%d hot=%.2f/%.2f compute=%d \
         mean_size=%.0f"
        seed (Runtime.mode_name mode) p.Profile.slots p.Profile.target_live
        p.Profile.ops p.Profile.churn p.Profile.kill_only p.Profile.birth_only
        p.Profile.ptr_density p.Profile.reads_per_op p.Profile.writes_per_op
        p.Profile.chase_depth p.Profile.hot_fraction p.Profile.hot_weight
        p.Profile.compute_per_op (Profile.mean_size p))
    QCheck.Gen.(
      triple profile_gen (oneofl (List.map snd strategies)) (int_range 1 1000))

let prop_random_profiles =
  QCheck.Test.make ~name:"app_body == reference on random profiles" ~count:15
    case_arb (fun (p, mode, seed) -> equivalent ~seed ~mode p)

let () =
  Alcotest.run "spec"
    [
      ( "equivalence",
        [
          Alcotest.test_case "spec profiles x strategies" `Quick
            test_spec_profiles_all_strategies;
          Alcotest.test_case "profile shapes" `Quick test_spec_profile_shapes;
          Alcotest.test_case "allocators and seeds" `Quick
            test_jemalloc_and_seeds;
          Alcotest.test_case "two tenants" `Quick test_two_tenants;
          QCheck_alcotest.to_alcotest prop_random_profiles;
        ] );
      ( "armed",
        [
          Alcotest.test_case "cheriot load filter" `Quick
            test_cheriot_load_filter;
          Alcotest.test_case "chaos hooks" `Quick test_chaos_hooks;
        ] );
    ]
