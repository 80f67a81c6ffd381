(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (§5) plus the DESIGN.md ablations.

     dune exec bench/main.exe                 # everything, default scale
     dune exec bench/main.exe -- --scale 1.0 fig1 fig4
     dune exec bench/main.exe -- --list

   Figures are computed from a shared measurement campaign: each
   (workload x mode) pair simulates once per invocation. *)

let all_targets : (string * string * (Campaign.t -> unit)) list =
  [
    ("fig1", "SPEC wall-clock overheads", Figures.fig1);
    ("fig2", "SPEC CPU-time overheads", Figures.fig2);
    ("fig3", "SPEC peak-RSS ratios", Figures.fig3);
    ("fig4", "SPEC bus-traffic overheads", Figures.fig4);
    ("fig5", "pgbench time overheads", Figures.fig5);
    ("fig6", "pgbench bus overheads", Figures.fig6);
    ("fig7", "pgbench latency CDF", Figures.fig7);
    ("fig8", "gRPC QPS latency percentiles", Figures.fig8);
    ("fig9", "revocation phase times", Figures.fig9);
    ("tab1", "pgbench fixed-rate latencies", Figures.tab1);
    ("tab2", "revocation rate statistics", Figures.tab2);
    ("ablation_policy", "quarantine policy sweep (§7.2)", Figures.ablation_policy);
    ("ablation_nt", "non-temporal sweep loads (§5.6)", Figures.ablation_nt);
    ("ablation_cheriot", "load filter vs load barrier (§6.3)", Figures.ablation_cheriot);
    ("ablation_clg", "per-PTE flag vs generation bit (§4.1)", Figures.ablation_clg);
    ("ablation_multibg", "multi-threaded background sweep (§7.1)", Figures.ablation_multibg);
    ("ablation_allocator", "snmalloc vs jemalloc (footnote 23)", Figures.ablation_allocator);
    ("ablation_coloring", "memory-coloring composition (§7.3)", Figures.ablation_coloring);
  ]

(* Machine-readable output: one flat JSON record per (profile x mode)
   run — SPEC batch profiles plus the interactive pgbench/grpc pair,
   whose records carry latency tails — for dashboards and CI trend
   tracking. *)
let write_json path records =
  let oc = open_out path in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[\n";
  List.iteri
    (fun i (r : Campaign.json_record) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "  {\"strategy\": %S, \"profile\": %S, \"topology\": %S, \
            \"host_count\": %d, \"balancer\": %S, \"tenants\": %d, \
            \"overcommit\": %S, \"seed\": %d, \
            \"fault_schedule\": %d, \"cycles\": %d, \"overhead_pct\": %.4f, \
            \"pause_p99\": %.1f, \"abandoned_bytes\": %d, \"lat_p99_us\": \
            %.3f, \"lat_p999_us\": %.3f, \"duration_ms\": %.3f, \"jobs\": %d, \
            \"ops_per_sec\": %.1f}"
           r.Campaign.j_strategy r.Campaign.j_profile r.Campaign.j_topology
           r.Campaign.j_host_count r.Campaign.j_balancer r.Campaign.j_tenants
           r.Campaign.j_overcommit r.Campaign.j_seed
           r.Campaign.j_schedule r.Campaign.j_cycles
           r.Campaign.j_overhead_pct r.Campaign.j_pause_p99
           r.Campaign.j_abandoned_bytes r.Campaign.j_lat_p99
           r.Campaign.j_lat_p999 r.Campaign.j_duration_ms r.Campaign.j_jobs
           r.Campaign.j_ops_per_sec))
    records;
  Buffer.add_string buf "\n]\n";
  Buffer.output_buffer oc buf;
  close_out oc

let usage () =
  print_endline
    "usage: main.exe [--scale S] [--seed N] [--jobs N] [--json OUT] [--list] \
     [target ...]";
  print_endline "targets:";
  List.iter (fun (n, d, _) -> Printf.printf "  %-18s %s\n" n d) all_targets;
  print_endline "(no targets = run everything)"

let die fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "main.exe: %s\n" msg;
      usage ();
      exit 1)
    fmt

let () =
  let scale = ref 0.5 in
  let seed = ref 1 in
  let jobs = ref (Parallel.Pool.default_jobs ()) in
  let json_out = ref None in
  let targets = ref [] in
  let rec parse = function
    | [] -> ()
    | "--scale" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when Float.is_finite s && s > 0.0 -> scale := s
        | Some _ | None -> die "--scale needs a positive finite number, got %S" v);
        parse rest
    | "--seed" :: v :: rest ->
        (match int_of_string_opt v with
        | Some s -> seed := s
        | None -> die "--seed needs an integer, got %S" v);
        parse rest
    | "--jobs" :: v :: rest ->
        (match int_of_string_opt v with
        | None -> die "--jobs needs a positive integer, got %S" v
        | Some j -> (
            match Parallel.Pool.validate_jobs j with
            | Ok j -> jobs := j
            | Error msg -> die "%s" msg));
        parse rest
    | "--json" :: v :: rest ->
        json_out := Some v;
        parse rest
    | [ ("--scale" | "--seed" | "--jobs" | "--json") ] as flag ->
        die "%s needs a value" (List.hd flag)
    | ("--list" | "--help" | "-h") :: _ ->
        usage ();
        exit 0
    | t :: rest ->
        if List.exists (fun (n, _, _) -> n = t) all_targets then begin
          targets := t :: !targets;
          parse rest
        end
        else if String.length t > 0 && t.[0] = '-' then
          die "unknown option %S" t
        else
          die "unknown target %S" t
  in
  parse (List.tl (Array.to_list Sys.argv));
  let chosen =
    match List.rev !targets with
    | [] ->
        (* --json with no targets dumps the spec campaign without
           rendering every figure *)
        if !json_out <> None then []
        else List.map (fun (n, _, _) -> n) all_targets
    | l -> l
  in
  Format.printf
    "Cornucopia Reloaded reproduction harness — ops scale %.2f, heap scale 1/%.0f, seed %d, jobs %d@."
    !scale Paper.heap_scale !seed !jobs;
  Format.printf
    "(shapes and orderings are the reproduced quantities; see EXPERIMENTS.md)@.";
  let c = Campaign.create ~jobs:!jobs ~scale:!scale ~seed:!seed () in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      let _, _, f = List.find (fun (n, _, _) -> n = name) all_targets in
      f c)
    chosen;
  (match !json_out with
  | Some path ->
      write_json path (Campaign.json_records c);
      Format.printf "wrote %s@." path
  | None -> ());
  Format.printf "@.[harness completed in %.1fs]@." (Unix.gettimeofday () -. t0)
