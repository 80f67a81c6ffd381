(* Workload generator tests: the object table, profiles, and the three
   benchmark drivers (at miniature scale). *)

module M = Sim.Machine
module Cap = Cheri.Capability
module Profile = Workload.Profile
module Objtable = Workload.Objtable
module Result = Workload.Result
module Loadgen = Service.Loadgen

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---- objtable ---- *)

let with_table f =
  let cfg = { M.default_config with heap_bytes = 4 lsl 20; mem_bytes = 16 lsl 20 } in
  let rt = Ccr.Runtime.create ~config:cfg Ccr.Runtime.Baseline in
  let out = ref None in
  ignore (M.spawn rt.Ccr.Runtime.machine ~name:"app" ~core:3 (fun ctx ->
      let t = Objtable.create rt ctx ~slots:600 in
      out := Some (f rt t ctx)));
  M.run rt.Ccr.Runtime.machine;
  Option.get !out

let test_objtable_put_get () =
  with_table (fun rt t ctx ->
      check_int "slots" 600 (Objtable.slots t);
      check_int "empty" 0 (Objtable.live_count t);
      let c = Ccr.Runtime.malloc rt ctx 64 in
      Objtable.put t ctx 5 c ~size:(Cap.length c);
      check "live" true (Objtable.is_live t 5);
      check_int "count" 1 (Objtable.live_count t);
      check_int "size" (Cap.length c) (Objtable.size_of t 5);
      check "get" true (Cap.equal c (Objtable.get t ctx 5));
      Objtable.kill t 5;
      check "dead" false (Objtable.is_live t 5);
      (* the stale capability is still IN memory (dangling) *)
      check "stale cap remains" true (Cap.tag (Objtable.get t ctx 5)))

let test_objtable_random () =
  with_table (fun rt t ctx ->
      let rng = Sim.Prng.create ~seed:3 in
      check "no live yet" true (Objtable.random_live t rng ~hot:0.1 ~weight:0.5 = None);
      for i = 0 to 99 do
        let c = Ccr.Runtime.malloc rt ctx 32 in
        Objtable.put t ctx i c ~size:32
      done;
      (match Objtable.random_live t rng ~hot:0.1 ~weight:0.5 with
      | Some i -> check "live pick is live" true (Objtable.is_live t i)
      | None -> Alcotest.fail "no live slot found");
      match Objtable.random_dead t rng with
      | Some i -> check "dead pick is dead" false (Objtable.is_live t i)
      | None -> Alcotest.fail "no dead slot found")

let test_objtable_spans_chunks () =
  with_table (fun rt t ctx ->
      (* slot 300 lives in the second 256-slot chunk *)
      let c = Ccr.Runtime.malloc rt ctx 64 in
      Objtable.put t ctx 300 c ~size:64;
      check "cross-chunk get" true (Cap.equal c (Objtable.get t ctx 300)))

(* ---- profiles ---- *)

let test_profiles_sane () =
  List.iter
    (fun (p : Profile.t) ->
      check (p.Profile.name ^ " slots") true (p.Profile.slots > 0);
      check (p.Profile.name ^ " ops") true (p.Profile.ops > 0);
      check (p.Profile.name ^ " probs") true
        (p.Profile.churn +. p.Profile.kill_only +. p.Profile.birth_only < 1.0);
      check (p.Profile.name ^ " heap need") true
        (Profile.heap_bytes_needed p > 0))
    Profile.spec_all;
  (* eight SPEC benchmarks, with hmmer contributing two workloads *)
  check_int "nine workloads" 9 (List.length Profile.spec_all);
  check_int "seven engage revocation" 7 (List.length Profile.spec_revoking);
  check "find works" true (Profile.find "omnetpp").Profile.engages_revocation;
  check "find raises" true
    (try ignore (Profile.find "nonesuch"); false with Not_found -> true)

let test_size_dist () =
  let rng = Sim.Prng.create ~seed:5 in
  for _ = 1 to 200 do
    let s = Profile.sample_size rng (Profile.Uniform (32, 64)) in
    check "uniform in range" true (s >= 32 && s < 64)
  done;
  check_int "fixed" 48 (Profile.sample_size rng (Profile.Fixed 48));
  for _ = 1 to 100 do
    let s =
      Profile.sample_size rng
        (Profile.Mixture [ (0.5, Profile.Fixed 16); (0.5, Profile.Fixed 32) ])
    in
    check "mixture picks a branch" true (s = 16 || s = 32)
  done

let test_size_compiled_unchanged () =
  (* the precomputed-CDF sampler must be draw-for-draw identical to the
     declarative one: same seed, same draw index, same value — for every
     spec profile's distribution and for ad hoc mixtures *)
  let dists =
    List.map (fun (p : Profile.t) -> (p.Profile.name, p.Profile.size))
      Profile.spec_all
    @ [
        ("fixed", Profile.Fixed 48);
        ("uniform", Profile.Uniform (32, 4096));
        ( "skewed mixture",
          Profile.Mixture
            [
              (0.01, Profile.Fixed 16);
              (3.0, Profile.Uniform (64, 128));
              (0.5, Profile.Fixed 65536);
            ] );
        ("one arm", Profile.Mixture [ (1.0, Profile.Uniform (16, 17)) ]);
      ]
  in
  List.iter
    (fun (name, d) ->
      let c = Profile.sizer_of d in
      List.iter
        (fun seed ->
          let r1 = Sim.Prng.create ~seed in
          let r2 = Sim.Prng.create ~seed in
          for i = 1 to 2_000 do
            let a = Profile.sample_size r1 d in
            let b = Profile.sample r2 c in
            if a <> b then
              Alcotest.failf "%s seed %d draw %d: sample_size=%d sample=%d"
                name seed i a b
          done)
        [ 1; 42; 1337 ])
    dists;
  (* and the spec profiles' cached size_c is the compiled form of size *)
  List.iter
    (fun (p : Profile.t) ->
      let r1 = Sim.Prng.create ~seed:7 in
      let r2 = Sim.Prng.create ~seed:7 in
      for _ = 1 to 500 do
        check_int
          (p.Profile.name ^ " size_c in sync")
          (Profile.sample_size r1 p.Profile.size)
          (Profile.sample r2 p.Profile.size_c)
      done)
    Profile.spec_all

(* ---- spec engine ---- *)

let tiny = { (Profile.find "hmmer_retro") with Profile.ops = 8_000; slots = 400 }

let test_spec_deterministic () =
  let r1 = Workload.Spec.run ~seed:9 ~mode:Ccr.Runtime.Baseline tiny in
  let r2 = Workload.Spec.run ~seed:9 ~mode:Ccr.Runtime.Baseline tiny in
  check_int "same wall" r1.Result.wall_cycles r2.Result.wall_cycles;
  check_int "same bus" r1.Result.bus_total r2.Result.bus_total;
  let r3 = Workload.Spec.run ~seed:10 ~mode:Ccr.Runtime.Baseline tiny in
  check "different seed differs" true (r3.Result.wall_cycles <> r1.Result.wall_cycles)

let test_spec_modes_complete () =
  List.iter
    (fun mode ->
      let r = Workload.Spec.run ~seed:4 ~mode tiny in
      check "ops done" true (r.Result.ops_done = tiny.Profile.ops);
      check "wall positive" true (r.Result.wall_cycles > 0);
      match mode with
      | Ccr.Runtime.Baseline -> check "no phases" true (r.Result.phases = [])
      | Ccr.Runtime.Safe _ -> check "mrs stats present" true (r.Result.mrs <> None))
    Ccr.Runtime.all_modes

let test_spec_overhead_ordering () =
  (* the fundamental result at miniature scale: every safe mode costs
     more wall time than baseline, and CHERIvoke pauses the most *)
  let wall mode = (Workload.Spec.run ~seed:4 ~mode tiny).Result.wall_cycles in
  let base = wall Ccr.Runtime.Baseline in
  let chv = wall (Ccr.Runtime.Safe Ccr.Revoker.Cherivoke) in
  let rel = wall (Ccr.Runtime.Safe Ccr.Revoker.Reloaded) in
  check "cherivoke over baseline" true (chv > base);
  check "reloaded over baseline" true (rel > base);
  check "reloaded at most cherivoke-ish" true
    (float_of_int rel < 1.05 *. float_of_int chv)

(* ---- bad operation-count scales ---- *)

(* Non-finite and negative scales fail loudly; 0.0 stays legal (a run
   of the table warm-up alone). *)
let bad_scales = [ Float.nan; Float.infinity; Float.neg_infinity; -0.5 ]

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let test_spec_bad_scale () =
  List.iter
    (fun s ->
      check (Printf.sprintf "Spec.run ops_scale %g" s) true
        (raises_invalid (fun () ->
             Workload.Spec.run ~ops_scale:s ~mode:Ccr.Runtime.Baseline tiny)))
    bad_scales;
  let r = Workload.Spec.run ~ops_scale:0.0 ~mode:Ccr.Runtime.Baseline tiny in
  check_int "zero scale runs no ops" 0 r.Result.ops_done

let test_tenant_bad_scale () =
  List.iter
    (fun s ->
      check (Printf.sprintf "Tenant.run ops_scale %g" s) true
        (raises_invalid (fun () ->
             Workload.Tenant.run ~ops_scale:s ~mode:Ccr.Runtime.Baseline tiny)))
    bad_scales;
  let r = Workload.Tenant.run ~ops_scale:0.0 ~mode:Ccr.Runtime.Baseline tiny in
  check_int "zero scale runs no ops" 0 r.Workload.Tenant.total_ops

(* Each command, a CLI in bin/ with its arguments, exits with status 1
   before running. *)
let check_cli_rejects cases =
  let exe name =
    Filename.quote
      (Filename.concat (Filename.dirname Sys.executable_name)
         (Filename.concat Filename.parent_dir_name
            (Filename.concat "bin" name)))
  in
  List.iter
    (fun (exe_name, args) ->
      let cmd = String.concat " " (exe exe_name :: args) in
      check_int cmd 1 (Sys.command (cmd ^ " >/dev/null 2>&1")))
    cases

(* The CLIs reject the same values with exit status 1 before running. *)
let test_cli_bad_scale () =
  check_cli_rejects
    (List.concat_map
       (fun v ->
         [
           ("ccr_sim.exe", [ "spec"; "-w"; "omnetpp"; "--scale"; v ]);
           ("ccr_sim.exe", [ "tenant"; "--scale"; v ]);
           ("ccr_check.exe", [ "--scale"; v ]);
         ])
       [ "nan"; "inf"; "0" ])

(* ---- bad offered rates ---- *)

(* Non-finite and non-positive rates fail loudly instead of producing a
   schedule (NaN used to get past [rate <= 0.0] checks). *)
let bad_rates = [ Float.nan; Float.infinity; Float.neg_infinity; 0.0; -5.0 ]

let test_loadgen_bad_rate () =
  let patterns r =
    [
      Loadgen.Poisson r;
      Loadgen.Bursty { base = r; peak = 50_000.0; period_us = 1_000.0; duty = 0.5 };
      Loadgen.Bursty { base = 5_000.0; peak = r; period_us = 1_000.0; duty = 0.5 };
      Loadgen.Ramp { from_rate = r; to_rate = 50_000.0 };
      Loadgen.Ramp { from_rate = 5_000.0; to_rate = r };
      Loadgen.Diurnal { low = r; high = 50_000.0; period_us = 1_000.0 };
      Loadgen.Diurnal { low = 5_000.0; high = r; period_us = 1_000.0 };
    ]
  in
  List.iter
    (fun r ->
      List.iter
        (fun pattern ->
          check
            (Printf.sprintf "%s rate %g" (Loadgen.pattern_name pattern) r)
            true
            (raises_invalid (fun () ->
                 Loadgen.schedule { Loadgen.pattern; requests = 10; seed = 1 })))
        (patterns r))
    bad_rates

(* [--qps=-1], not [--qps -1], which would parse as a flag. *)
let test_cli_bad_qps () =
  check_cli_rejects
    (List.concat_map
       (fun v ->
         [
           ("ccr_serve.exe", [ "--qps=" ^ v ]);
           ("ccr_serve.exe", [ "--qps=50000," ^ v ]);
           ("ccr_fleet.exe", [ "--qps=" ^ v ]);
           ("ccr_sim.exe", [ "tenantecon"; "--rate=" ^ v ]);
           ("ccr_sim.exe", [ "pgbench"; "--rate=" ^ v ]);
         ])
       [ "nan"; "inf"; "0"; "-1" ])

(* The serving knobs fail with a message instead of producing numbers
   (a negative deadline used to shed every request and exit 0) or dying
   in an uncaught exception (zero servers or queue depth). *)
let test_cli_bad_serving_flags () =
  check_cli_rejects
    (List.concat_map
       (fun v ->
         [
           ("ccr_serve.exe", [ "--deadline-us=" ^ v ]);
           ("ccr_serve.exe", [ "--target-p99-us=" ^ v ]);
           ("ccr_fleet.exe", [ "--deadline-us=" ^ v ]);
           ("ccr_fleet.exe", [ "--target-p99-us=" ^ v ]);
         ])
       [ "nan"; "inf"; "0"; "-1"; "-5" ]
    @ List.concat_map
        (fun flag -> [ ("ccr_serve.exe", [ flag ^ "=0" ]); ("ccr_serve.exe", [ flag ^ "=-1" ]) ])
        [ "--servers"; "--queue-depth" ])

(* NaN slips past [x <= 0.0]-style checks: each of these ran (exit 0)
   with the flag silently ignored or turned into a default. The retry
   and hedge values are checked by [Retry.validate]/[validate_hedge], so
   each is given with the option that puts it in use. *)
let test_cli_nonfinite_flags () =
  check_cli_rejects
    ([
       ("ccr_sim.exe", [ "tenantecon"; "--storm-at=nan" ]);
       ("ccr_sim.exe", [ "tenantecon"; "--phys-frac=nan" ]);
       ("ccr_sim.exe", [ "tenantecon"; "--phys-frac=inf" ]);
       ("ccr_fleet.exe", [ "--critical=nan" ]);
       ("ccr_fleet.exe", [ "--background=nan" ]);
       ("ccr_fleet.exe", [ "--rto-us=nan" ]);
       ("ccr_fleet.exe", [ "--breaker"; "on"; "--breaker-cooloff-us=nan" ]);
       ("ccr_fleet.exe", [ "--hedge-pct=nan" ]);
       ("ccr_fleet.exe", [ "--hedge-pct=99"; "--hedge-min-us=nan" ]);
       ("ccr_fleet.exe", [ "--retry"; "naive"; "--retry-base-us=nan" ]);
     ]
    @ List.map
        (fun flag -> ("ccr_fleet.exe", [ "--retry"; "budgeted"; flag ^ "=nan" ]))
        [ "--retry-base-us"; "--retry-cap-us"; "--retry-ratio" ])

(* ---- pgbench ---- *)

let pg_tiny =
  { Workload.Pgbench.default_config with Workload.Pgbench.transactions = 300 }

let test_pgbench_runs () =
  let r = Workload.Pgbench.run ~config:pg_tiny ~mode:(Ccr.Runtime.Safe Ccr.Revoker.Reloaded) () in
  check "latencies collected" true (Array.length r.Result.latencies_us > 200);
  check "throughput positive" true (r.Result.throughput > 0.0);
  Array.iter (fun l -> check "latency positive" true (l > 0.0)) r.Result.latencies_us

let test_pgbench_rate_mode () =
  let cfg = { pg_tiny with Workload.Pgbench.rate = Some 2000.0 } in
  let r = Workload.Pgbench.run ~config:cfg ~mode:Ccr.Runtime.Baseline () in
  (* scheduled slower than capacity: throughput tracks the schedule *)
  check "throughput near schedule" true
    (r.Result.throughput > 1000.0 && r.Result.throughput < 2600.0)

(* ---- grpc ---- *)

let test_grpc_runs () =
  let cfg =
    { Workload.Grpc.default_config with Workload.Grpc.messages = 2_000;
      session_slots = 2_000 }
  in
  let r = Workload.Grpc.run ~config:cfg ~mode:(Ccr.Runtime.Safe Ccr.Revoker.Cornucopia) () in
  check "latencies" true (Array.length r.Result.latencies_us > 1500);
  check "qps positive" true (r.Result.throughput > 0.0)

let prop_spec_safe_never_cheaper =
  QCheck.Test.make ~name:"safe modes never reduce CPU time" ~count:5
    (QCheck.make QCheck.Gen.(int_range 1 1000))
    (fun seed ->
      let base = Workload.Spec.run ~seed ~mode:Ccr.Runtime.Baseline tiny in
      let safe =
        Workload.Spec.run ~seed ~mode:(Ccr.Runtime.Safe Ccr.Revoker.Paint_sync) tiny
      in
      safe.Result.cpu_cycles >= base.Result.cpu_cycles)

let () =
  Alcotest.run "workload"
    [
      ( "objtable",
        [
          Alcotest.test_case "put/get" `Quick test_objtable_put_get;
          Alcotest.test_case "random" `Quick test_objtable_random;
          Alcotest.test_case "chunks" `Quick test_objtable_spans_chunks;
        ] );
      ( "profiles",
        [
          Alcotest.test_case "sane" `Quick test_profiles_sane;
          Alcotest.test_case "size dist" `Quick test_size_dist;
          Alcotest.test_case "compiled sizer unchanged" `Quick
            test_size_compiled_unchanged;
        ] );
      ( "spec",
        [
          Alcotest.test_case "deterministic" `Quick test_spec_deterministic;
          Alcotest.test_case "modes complete" `Slow test_spec_modes_complete;
          Alcotest.test_case "overhead ordering" `Slow test_spec_overhead_ordering;
        ] );
      ( "scale",
        [
          Alcotest.test_case "Spec.run rejects bad values" `Quick
            test_spec_bad_scale;
          Alcotest.test_case "Tenant.run rejects bad values" `Quick
            test_tenant_bad_scale;
          Alcotest.test_case "CLIs reject bad values" `Quick test_cli_bad_scale;
        ] );
      ( "qps",
        [
          Alcotest.test_case "Loadgen.schedule rejects bad rates" `Quick
            test_loadgen_bad_rate;
          Alcotest.test_case "CLIs reject bad values" `Quick test_cli_bad_qps;
          Alcotest.test_case "CLIs reject bad serving flags" `Quick
            test_cli_bad_serving_flags;
          Alcotest.test_case "CLIs reject non-finite flags" `Quick
            test_cli_nonfinite_flags;
        ] );
      ( "pgbench",
        [
          Alcotest.test_case "runs" `Slow test_pgbench_runs;
          Alcotest.test_case "rate mode" `Slow test_pgbench_rate_mode;
        ] );
      ("grpc", [ Alcotest.test_case "runs" `Slow test_grpc_runs ]);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_spec_safe_never_cheaper ] );
    ]
