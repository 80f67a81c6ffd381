(* perfbench: the simulator's host cost, end to end and per layer.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   [--trace 0] times the workload untraced and prints the end-to-end
   metrics; [--trace 1] times every layer's entry points in isolation,
   then runs the workload once untraced and once with a Trace subscriber,
   and prints the per-layer metrics. The last stdout line is one JSON
   object {correct, attempted, failed, metrics}. [--workload all] runs
   both modes on every workload. [--gen-expected A-B] prints the expected
   digests for seeds A..B with the reference SPEC interpreter;
   [--self-check] checks that the benchmark's figures repeat. *)

let now = Unix.gettimeofday
let median = Layers.median
let out_dir = "perfbench/out"
let expected_path = "perfbench/expected.tsv"

(* ---- spans: kept in memory, written out at the end ---- *)

type span = {
  sid : int;
  sname : string;
  parent : int;
  t0 : float;
  mutable t1 : float;
}

let spans = ref []
let nspans = ref 0
let current = ref 0

let open_span ~parent name t0 =
  incr nspans;
  let s = { sid = !nspans; sname = name; parent; t0; t1 = t0 } in
  spans := s :: !spans;
  s

let span name f =
  let s = open_span ~parent:!current name (now ()) in
  let saved = !current in
  current := s.sid;
  Fun.protect
    ~finally:(fun () ->
      s.t1 <- now ();
      current := saved)
    f

(* ---- the traced run's subscriber ---- *)

type tally = {
  kinds : (Sim.Trace.kind, int ref) Hashtbl.t;
  mutable events : int;
  mutable stw_at : float;
  mutable stw_s : float;
  mutable epoch_at : float;
  mutable epoch_s : float;
  mutable swept : int;
  mutable yielding : int;  (** swept pages that revoked a capability *)
}

let tally () =
  {
    kinds = Hashtbl.create 64;
    events = 0;
    stw_at = 0.0;
    stw_s = 0.0;
    epoch_at = 0.0;
    epoch_s = 0.0;
    swept = 0;
    yielding = 0;
  }

let count t k = match Hashtbl.find_opt t.kinds k with Some r -> !r | None -> 0

let observe t ~parent (ev : Sim.Trace.event) =
  t.events <- t.events + 1;
  (match Hashtbl.find_opt t.kinds ev.kind with
  | Some r -> incr r
  | None -> Hashtbl.add t.kinds ev.kind (ref 1));
  let close name since =
    let t1 = now () in
    (open_span ~parent name since).t1 <- t1;
    t1 -. since
  in
  match ev.kind with
  | Sim.Trace.Stw_request -> t.stw_at <- now ()
  | Stw_release -> t.stw_s <- t.stw_s +. close "stw" t.stw_at
  | Epoch_begin -> t.epoch_at <- now ()
  | Epoch_end -> t.epoch_s <- t.epoch_s +. close "epoch" t.epoch_at
  | Page_sweep ->
      t.swept <- t.swept + 1;
      if ev.arg2 > 0 then t.yielding <- t.yielding + 1
  | _ -> ()

(* ---- one repetition of a workload ---- *)

type cell_run = {
  cell : Cells.cell;
  wall : float;
  res : (Cells.outcome, string) result;
  minor : float;
  major : float;
}

(* What a traced repetition saw, summed over its cells. *)
type seen = { tl : tally; mutable machines : Sim.Machine.t list }

let run_cell ?seen ~seed cell =
  let tracer, on_runtime =
    match seen with
    | None -> (None, None)
    | Some s ->
        let tr = Sim.Trace.create () in
        let parent = !current in
        ignore (Sim.Trace.subscribe tr (observe s.tl ~parent));
        ( Some tr,
          Some
            (fun (rt : Ccr.Runtime.t) ->
              (* attach_tracer arms the ring's drop warning; the
                 subscriber is lossless, so silence it *)
              Sim.Trace.set_warn_on_drop tr false;
              s.machines <- rt.Ccr.Runtime.machine :: s.machines) )
  in
  (* a full collection first: every cell starts from an empty minor
     heap, so its word counts repeat exactly *)
  Gc.full_major ();
  let mi0, _, ma0 = Gc.counters () in
  let t0 = now () in
  let res =
    match Cells.run ?tracer ?on_runtime ~seed cell with
    | o -> Ok o
    | exception e -> Error (Printexc.to_string e)
  in
  let wall = now () -. t0 in
  let mi1, _, ma1 = Gc.counters () in
  { cell; wall; res; minor = mi1 -. mi0; major = ma1 -. ma0 }

let run_rep ?seen ~seed (w : Cells.workload) =
  List.map (run_cell ?seen ~seed) w.cells

let rep_wall rep = List.fold_left (fun a c -> a +. c.wall) 0.0 rep

let completed rep =
  List.filter_map
    (fun c -> match c.res with Ok o -> Some (c, o) | Error _ -> None)
    rep

(* Set-up: every cell built with zero ops, at least [n] times and until
   [seconds] have been spent (at most 25 times); per-rep lists of
   per-cell seconds. *)
let setup ?(seconds = 0.0) ~seed ~n (w : Cells.workload) =
  let once () =
    List.map
      (fun cell ->
        Gc.full_major ();
        let t0 = now () in
        ignore (Cells.run ~zero:true ~seed cell);
        now () -. t0)
      w.cells
  in
  let rec go acc k spent =
    if k >= 25 || (k >= n && spent >= seconds) then acc
    else
      let r = once () in
      go (r :: acc) (k + 1) (spent +. List.fold_left ( +. ) 0.0 r)
  in
  go [] 0 0.0

(* ---- correctness ---- *)

type verdict = { failures : (string * string) list; wrong : bool }

(* Check a repetition's cells: raised, identity broken, or digest
   differing from the expected one ([expect cell] gives it, if known). *)
let check_rep ~expect rep =
  List.fold_left
    (fun v c ->
      let fail why wrong =
        { failures = v.failures @ [ (c.cell.id, why) ]; wrong = v.wrong || wrong }
      in
      match c.res with
      | Error e -> fail ("raised " ^ e) false
      | Ok { broken = Some b; _ } -> fail ("identity: " ^ b) true
      | Ok o -> (
          match expect c.cell with
          | Some d when d <> o.digest ->
              fail (Printf.sprintf "digest %s, expected %s" o.digest d) true
          | Some _ | None -> v))
    { failures = []; wrong = false }
    rep

let same_digests a b =
  List.for_all2
    (fun x y ->
      match (x.res, y.res) with
      | Ok o, Ok p -> o.Cells.digest = p.Cells.digest
      | Error e, Error f -> e = f
      | _ -> false)
    a b

(* Expected digests: the committed table, else (SPEC cells only) the
   reference interpreter run now. *)
let expectation ~seed ~table (w : Cells.workload) =
  let reference = Hashtbl.create 8 in
  List.iter
    (fun (cell : Cells.cell) ->
      match (Hashtbl.find_opt table (cell.id, seed), cell.kind) with
      | Some d, _ -> Hashtbl.replace reference cell.id (d, "table")
      | None, Cells.Spec_cell _ -> (
          match Cells.run ~interp:Workload.Spec.Reference ~seed cell with
          | o -> Hashtbl.replace reference cell.id (o.digest, "reference")
          | exception e ->
              Hashtbl.replace reference cell.id
                ("raised " ^ Printexc.to_string e, "reference"))
      | None, _ -> ())
    w.cells;
  reference

(* ---- output ---- *)

type metric = { mname : string; unit : string; value : float }

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.mname)
              (json_num m.value) (json_string m.unit))
          metrics))

let print_metrics title ms =
  Printf.printf "\n%s\n" title;
  List.iter (fun m -> Printf.printf "  %-32s %16.6g %s\n" m.mname m.value m.unit) ms

let print_failures ~workload v =
  List.iter
    (fun (id, why) -> Printf.printf "FAIL %s %s: %s\n" workload id why)
    v.failures

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb -> kb)
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = scan () in
  close_in ic;
  float_of_int kb /. 1024.0

(* Resets VmHWM to the current RSS (Linux clear_refs), so that each
   repetition's peak can be read on its own. *)
let reset_peak_rss () =
  Gc.full_major ();
  try
    let oc = open_out "/proc/self/clear_refs" in
    output_string oc "5";
    close_out oc
  with Sys_error _ -> ()

let div a b = if b = 0.0 then 0.0 else a /. b

type run = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

(* Simulated ops per host second after set-up, over the cells that did
   not fail ([cell_setup]: each cell's set-up seconds). *)
let ops_rate ~failures ~cell_setup rep =
  let ops, busy =
    List.fold_left2
      (fun (o, b) c s ->
        match c.res with
        | Ok x when not (List.mem_assoc c.cell.id failures) ->
            (o + x.Cells.ops, b +. Float.max 1e-6 (c.wall -. s))
        | _ -> (o, b))
      (0, 0.0) rep cell_setup
  in
  div (float_of_int ops) busy

(* ---- trace 0: end-to-end metrics ---- *)

let end_to_end ~seed ~seconds ~table (w : Cells.workload) =
  let setups = setup ~seconds:1.5 ~seed ~n:5 w in
  let setup_s = median (List.map (List.fold_left ( +. ) 0.0) setups) in
  let cell_setup =
    List.mapi (fun i _ -> median (List.map (fun r -> List.nth r i) setups)) w.cells
  in
  (* repetitions until [seconds], rounding the last one to the nearest,
     each with its own peak RSS *)
  let peaks = ref [] in
  let reps =
    let t_start = now () in
    let rec loop acc =
      reset_peak_rss ();
      let rep = run_rep ~seed w in
      peaks := peak_rss_mb () :: !peaks;
      let acc = rep :: acc in
      if now () -. t_start +. (0.5 *. rep_wall rep) >= seconds then List.rev acc
      else loop acc
    in
    loop []
  in
  let first = List.hd reps in
  let reference = expectation ~seed ~table w in
  let expect (c : Cells.cell) = Option.map fst (Hashtbl.find_opt reference c.id) in
  let v = check_rep ~expect first in
  let v =
    if List.for_all (same_digests first) reps then v
    else
      { failures = v.failures @ [ ("*", "digests differ between repetitions") ]; wrong = true }
  in
  let ncells = List.length w.cells in
  let nreps = List.length reps in
  let failed_cells = List.length (List.sort_uniq compare (List.map fst v.failures)) in
  let failed_cells = min ncells failed_cells in
  let good = List.filter (fun c -> not (List.mem_assoc c.cell.id v.failures)) first in
  let ops =
    float_of_int
      (List.fold_left
         (fun a c -> match c.res with Ok o -> a + o.Cells.ops | Error _ -> a)
         0 good)
  in
  Printf.printf "%s seed %d: %d repetition(s) of %d cell(s):%s s\n" w.name seed nreps ncells
    (String.concat "" (List.map (fun r -> Printf.sprintf " %.3f" (rep_wall r)) reps));
  List.iteri
    (fun i c ->
      let walls = List.map (fun r -> (List.nth r i).wall) reps in
      let src =
        match Hashtbl.find_opt reference c.cell.id with
        | Some (_, s) -> s
        | None -> "self"
      in
      Printf.printf "  %-28s %8.3f s  setup %6.3f s  %s (%s)\n" c.cell.id (median walls)
        (List.nth cell_setup i)
        (match c.res with Ok o -> o.Cells.digest | Error _ -> "raised")
        src)
    first;
  print_failures ~workload:w.name v;
  let sum f = List.fold_left (fun a c -> a +. f c) 0.0 good in
  (* wall_s and sim_ops_per_s are printed, not reported: between runs of
     the same code on a shared host they spread by up to 30%, more than
     any bound the benchmark could fix; the word counts, which repeat
     exactly, carry the host cost instead *)
  let host =
    [
      { mname = "wall_s"; unit = "s"; value = median (List.map rep_wall reps) };
      {
        mname = "sim_ops_per_s";
        unit = "1/s";
        value = median (List.map (ops_rate ~failures:v.failures ~cell_setup) reps);
      };
    ]
  in
  let metrics =
    [
      { mname = "setup_s"; unit = "s"; value = setup_s };
      { mname = "minor_words_per_op"; unit = "words"; value = div (sum (fun c -> c.minor)) ops };
      { mname = "major_words_per_op"; unit = "words"; value = div (sum (fun c -> c.major)) ops };
      { mname = "peak_rss_mb"; unit = "MB"; value = median !peaks };
    ]
  in
  let failed_share = div (float_of_int failed_cells) (float_of_int ncells) in
  print_metrics
    (Printf.sprintf "end-to-end, %s (median of %d repetitions; set-up median of %d)" w.name
       nreps (List.length setups))
    (host @ metrics @ [ { mname = "failed_share"; unit = "ratio"; value = failed_share } ]);
  {
    correct = not v.wrong;
    attempted = ncells * nreps;
    failed = failed_cells * nreps;
    metrics;
  }

(* ---- trace 1: per-layer metrics ---- *)

(* Each layer metric, the end-to-end metric it should move, and where. *)
let layer_map =
  [
    ("cheri", "minor_words_per_op, sim_ops_per_s", "spec-churn, spec-stream");
    ("tagmem", "sim_ops_per_s", "spec-stream (little on serve-knee)");
    ("vm", "sim_ops_per_s", "spec-stream, spec-churn");
    ("machine", "sim_ops_per_s", "serve-knee, fleet-rolling (little on spec-stream)");
    ("alloc", "sim_ops_per_s, minor_words_per_op", "spec-churn (not spec-stream)");
    ("core", "sim_ops_per_s", "spec-churn (idle on spec-stream)");
    ("service", "sim_ops_per_s", "serve-knee");
    ("fleet", "wall_s", "fleet-rolling");
  ]

let alloc_sizes (w : Cells.workload) =
  let rng = Sim.Prng.create ~seed:4242 in
  let profiles =
    List.filter_map
      (fun (c : Cells.cell) ->
        match c.kind with
        | Cells.Spec_cell { profile; _ } -> Some (Workload.Profile.find profile)
        | _ -> None)
      w.cells
  in
  Array.init 4096 (fun i ->
      match profiles with
      | [] -> 128 + (Sim.Prng.int rng 56 * 16) (* Serve's request temporaries *)
      | ps ->
          let p = List.nth ps (i mod List.length ps) in
          Workload.Profile.sample rng p.Workload.Profile.size_c)

let write_spans ~workload ~seed (t : tally) =
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error _ -> ());
  let path = Printf.sprintf "%s/trace-%s-seed%d.json" out_dir workload seed in
  let oc = open_out path in
  let origin = match List.rev !spans with s :: _ -> s.t0 | [] -> 0.0 in
  Printf.fprintf oc "{\"spans\": [\n%s\n], \"events\": {%s}}\n"
    (String.concat ",\n"
       (List.rev_map
          (fun s ->
            Printf.sprintf
              "  {\"id\": %d, \"name\": %s, \"parent\": %d, \"start_s\": %.6f, \"end_s\": %.6f}"
              s.sid (json_string s.sname) s.parent (s.t0 -. origin) (s.t1 -. origin))
          !spans))
    (String.concat ", "
       (Hashtbl.fold
          (fun k n acc ->
            Printf.sprintf "%s: %d" (json_string (Sim.Trace.kind_name k)) !n :: acc)
          t.kinds []));
  close_out oc;
  path

let per_layer ~seed ~seconds ~table (w : Cells.workload) =
  let fleet_cfg = Cells.fleet_config seed in
  let costs =
    span "layers" (fun () -> Layers.measure ~span ~sizes:(alloc_sizes w) ~fleet_cfg)
  in
  let cost name =
    match List.find_opt (fun (m : Layers.measure) -> m.name = name) costs with
    | Some m -> m.value
    | None -> 0.0
  in
  let cell_setup = List.hd (span "setup" (fun () -> setup ~seed ~n:1 w)) in
  (* untraced/traced pairs until [seconds], alternating which goes first
     so that drift in host speed cancels out of the overhead *)
  let pairs =
    let t_start = now () in
    let rec loop k acc =
      let seen = { tl = tally (); machines = [] } in
      let plain () = span "run.untraced" (fun () -> run_rep ~seed w) in
      let traced () = span "run.traced" (fun () -> run_rep ~seen ~seed w) in
      let p, t =
        if k land 1 = 0 then
          let p = plain () in
          (p, traced ())
        else
          let t = traced () in
          (plain (), t)
      in
      let acc = (p, t, seen) :: acc in
      if now () -. t_start +. (0.5 *. (rep_wall p +. rep_wall t)) >= seconds then
        List.rev acc
      else loop (k + 1) acc
    in
    loop 0 []
  in
  let plain, traced, seen = List.hd pairs in
  let reference = span "check" (fun () -> expectation ~seed ~table w) in
  let expect (c : Cells.cell) = Option.map fst (Hashtbl.find_opt reference c.id) in
  let v = check_rep ~expect plain in
  let v =
    if List.for_all (fun (p, t, _) -> same_digests plain p && same_digests plain t) pairs
    then v
    else { failures = v.failures @ [ ("*", "traced digest differs from untraced") ]; wrong = true }
  in
  print_failures ~workload:w.name v;
  let ok = completed traced in
  let outs = List.map snd ok in
  let isum f = List.fold_left (fun a o -> a + f o) 0 outs in
  let ops = float_of_int (isum (fun o -> o.Cells.ops)) in
  let t = seen.tl in
  let per_op n = div (float_of_int n) ops in
  let caches =
    List.concat_map
      (fun m -> List.init (Sim.Machine.num_cores m) (Sim.Machine.cache_stats m))
      seen.machines
  in
  let csum f = List.fold_left (fun a s -> a + f s) 0 caches in
  let accesses = csum (fun s -> s.Tagmem.Cache.accesses) in
  let totals = List.map Sim.Machine.totals seen.machines in
  let tsum f = List.fold_left (fun a s -> a + f s) 0 totals in
  let switches = tsum (fun s -> s.Sim.Machine.context_switches) in
  let clg = tsum (fun s -> s.Sim.Machine.clg_faults) in
  let frees = count t Sim.Trace.Paint in
  let mrs f = isum (fun o -> match o.Cells.mrs with Some s -> f s | None -> 0) in
  let offered = isum (fun o -> o.Cells.offered) in
  let shed = isum (fun o -> o.Cells.shed) in
  let rounds = isum (fun o -> o.Cells.rounds) in
  let fleet_attempts = isum (fun o -> if o.Cells.rounds > 0 then o.ops else 0) in
  let ns n c = float_of_int n *. c *. 1e-9 in
  let est =
    [
      ("tagmem.est_s", ns accesses (cost "tagmem.cache_access_ns"));
      ("machine.est_s", ns switches (cost "machine.yield_ns"));
      ("alloc.est_s", ns frees (cost "alloc.malloc_free_ns"));
      ( "core.est_s",
        ns t.swept (cost "core.sweep_page_ns")
        +. ns frees (cost "core.revmap_paint_clear_ns")
        +. ns clg (Float.max 0.0 (cost "core.clg_fault_ns" -. cost "core.sweep_page_ns")) );
      ( "service.est_s",
        ns offered (cost "service.squeue_offer_take_ns")
        +. ns (offered - shed) (cost "service.slo_record_ns") );
      ("fleet.est_s", float_of_int rounds *. cost "fleet.plan_s");
    ]
  in
  let plain_wall = median (List.map (fun (p, _, _) -> rep_wall p) pairs) in
  let traced_wall = median (List.map (fun (_, t, _) -> rep_wall t) pairs) in
  let overhead = median (List.map (fun (p, t, _) -> (rep_wall t /. rep_wall p) -. 1.0) pairs) in
  let unattributed = List.fold_left (fun a (_, e) -> a -. e) plain_wall est in
  let m mname unit value = { mname; unit; value } in
  let counts =
    [
      m "tagmem.accesses_per_op" "1/op" (per_op accesses);
      m "tagmem.l1_hit_ratio" "ratio"
        (div (float_of_int (csum (fun s -> s.Tagmem.Cache.l1_hits))) (float_of_int accesses));
      m "tagmem.bus_tx_per_op" "1/op" (per_op (csum Tagmem.Cache.bus_total));
      m "vm.tlb_shootdowns" "count" (float_of_int (count t Sim.Trace.Tlb_shootdown));
      m "machine.context_switches" "count" (float_of_int switches);
      m "machine.stw_count" "count" (float_of_int (tsum (fun s -> s.Sim.Machine.stw_count)));
      m "machine.trace_events_per_op" "1/op" (per_op t.events);
      m "machine.stw_host_s" "s" t.stw_s;
      m "alloc.frees_per_op" "1/op" (per_op frees);
      m "core.revocations" "count" (float_of_int (mrs (fun s -> s.Ccr.Mrs.revocations)));
      m "core.page_sweeps" "count" (float_of_int t.swept);
      m "core.clg_faults" "count" (float_of_int clg);
      m "core.sweep_yield" "ratio" (div (float_of_int t.yielding) (float_of_int t.swept));
      m "core.blocked_allocs" "count"
        (float_of_int (mrs (fun s -> s.Ccr.Mrs.blocked_allocs + s.throttled_allocs)));
      m "core.epoch_host_s" "s" t.epoch_s;
      m "service.shed_share" "ratio" (div (float_of_int shed) (float_of_int offered));
      m "service.governor_defers" "count" (float_of_int (isum (fun o -> o.Cells.defers)));
      m "fleet.rounds" "count" (float_of_int rounds);
      m "fleet.attempts_per_request" "ratio"
        (if rounds > 0 then div (float_of_int fleet_attempts) (float_of_int offered) else 0.0);
    ]
  in
  let metrics =
    List.map
      (fun (c : Layers.measure) -> m c.name c.unit c.value)
      costs
    @ counts
    @ List.map (fun (n, e) -> m n "s" e) est
    @ [
        m "unattributed_s" "s" unattributed;
        m "trace.overhead_share" "ratio" overhead;
        m "run.wall_s" "s" plain_wall;
        m "run.sim_ops_per_s" "1/s"
          (median
             (List.map (fun (p, _, _) -> ops_rate ~failures:v.failures ~cell_setup p) pairs));
      ]
  in
  let layer_of name =
    match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name
  in
  Printf.printf
    "\nper-layer, %s seed %d (medians of %d untraced/traced pairs: %.3f s / %.3f s; %d events)\n"
    w.name seed (List.length pairs) plain_wall traced_wall t.events;
  List.iter
    (fun (layer, e2e, where) ->
      Printf.printf "  [%s] should move %s on %s\n" layer e2e where;
      List.iter
        (fun x ->
          if layer_of x.mname = layer then
            Printf.printf "    %-30s %16.6g %s\n" x.mname x.value x.unit)
        metrics)
    layer_map;
  List.iter
    (fun x ->
      if not (List.exists (fun (l, _, _) -> l = layer_of x.mname) layer_map) then
        Printf.printf "  %-34s %16.6g %s\n" x.mname x.value x.unit)
    metrics;
  Printf.printf "  spans and event counts: %s\n" (write_spans ~workload:w.name ~seed t);
  let ncells = List.length w.cells in
  let failed = min ncells (List.length (List.sort_uniq compare (List.map fst v.failures))) in
  let runs = 2 * List.length pairs in
  { correct = not v.wrong; attempted = ncells * runs; failed = failed * runs; metrics }

(* ---- expected digests and the self-check ---- *)

let gen_expected range workloads =
  let lo, hi = Scanf.sscanf range "%d-%d" (fun a b -> (a, b)) in
  for seed = lo to hi do
    List.iter
      (fun (w : Cells.workload) ->
        List.iter
          (fun (cell : Cells.cell) ->
            let d =
              match Cells.run ~interp:Workload.Spec.Reference ~seed cell with
              | o -> o.digest
              | exception e -> "raised " ^ Printexc.to_string e
            in
            Printf.printf "%s\t%d\t%s\n%!" cell.id seed d)
          w.cells)
      workloads;
    Printf.eprintf "perfbench: expected digests for seed %d done\n%!" seed
  done

(* One set-up and one repetition, as the first repetition of a benchmark
   run sees them: a line per cell with its digest and word counts. *)
let rep_lines ~seed (w : Cells.workload) =
  ignore (setup ~seed ~n:1 w);
  List.map
    (fun c ->
      Printf.sprintf "%s %s %.0f %.0f" c.cell.id
        (match c.res with Ok o -> o.Cells.digest | Error e -> "raised:" ^ e)
        c.minor c.major)
    (run_rep ~seed w)

(* Two processes, each on one domain, must print the same digests and
   word counts (within one process the GC's state differs between
   repetitions, so the counts are only exact per process); a traced
   repetition must match an untraced one and print nothing to stderr. *)
let self_check ~seed =
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error _ -> ());
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let child w =
    let ic =
      Unix.open_process_args_in Sys.executable_name
        [| Sys.executable_name; "--rep-lines"; w; "--seed"; string_of_int seed |]
    in
    let out = In_channel.input_all ic in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> out
    | _ -> "child failed"
  in
  List.iter
    (fun (w : Cells.workload) ->
      let a = child w.name and b = child w.name in
      if a <> b then problem "%s: digests or word counts differ between runs:\n%s%s" w.name a b;
      let plain = run_rep ~seed w in
      let err = Printf.sprintf "%s/selfcheck-stderr.txt" out_dir in
      let fd = Unix.openfile err [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
      let saved = Unix.dup Unix.stderr in
      Unix.dup2 fd Unix.stderr;
      let traced = run_rep ~seen:{ tl = tally (); machines = [] } ~seed w in
      flush stderr;
      Unix.dup2 saved Unix.stderr;
      Unix.close saved;
      Unix.close fd;
      if not (same_digests plain traced) then problem "%s: traced digest differs" w.name;
      if (Unix.stat err).Unix.st_size > 0 then
        problem "%s: the traced run wrote to stderr (see %s)" w.name err;
      Printf.printf "self-check %s:\n%s%!" w.name a)
    Cells.workloads;
  List.iter (Printf.printf "SELF-CHECK FAIL %s\n") (List.rev !problems);
  !problems = []

(* ---- command line ---- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 and trace = ref 0 in
  let gen = ref "" and check = ref false and lines = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload, or all");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S seconds to measure (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ( "--gen-expected",
        Arg.Set_string gen,
        "A-B print expected digests for seeds A..B (of --workload, else all)" );
      ("--self-check", Arg.Set check, " check that digests and word counts repeat");
      ("--rep-lines", Arg.Set_string lines, "NAME print one repetition's digests and words");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if !gen <> "" then
    gen_expected !gen
      (match Cells.find_workload !workload with Some w -> [ w ] | None -> Cells.workloads)
  else if !check then exit (if self_check ~seed:!seed then 0 else 1)
  else if !lines <> "" then (
    match Cells.find_workload !lines with
    | Some w -> List.iter print_endline (rep_lines ~seed:!seed w)
    | None -> exit 2)
  else begin
    let table = Cells.load_expected expected_path in
    if Hashtbl.length table = 0 then begin
      prerr_endline ("perfbench: no expected digests at " ^ expected_path);
      exit 2
    end;
    let one (w : Cells.workload) trace =
      if trace = 0 then end_to_end ~seed:!seed ~seconds:!seconds ~table w
      else per_layer ~seed:!seed ~seconds:!seconds ~table w
    in
    let r =
      match (!workload, Cells.find_workload !workload) with
      | _, Some w when !trace = 0 || !trace = 1 -> one w !trace
      | "all", _ ->
          let runs =
            List.concat_map
              (fun (w : Cells.workload) ->
                List.map
                  (fun tr ->
                    let r = one w tr in
                    { r with metrics = List.map (fun m -> { m with mname = w.name ^ ":" ^ m.mname }) r.metrics })
                  [ 0; 1 ])
              Cells.workloads
          in
          List.fold_left
            (fun a r ->
              {
                correct = a.correct && r.correct;
                attempted = a.attempted + r.attempted;
                failed = a.failed + r.failed;
                metrics = a.metrics @ r.metrics;
              })
            { correct = true; attempted = 0; failed = 0; metrics = [] }
            runs
      | _ ->
          prerr_endline
            ("perfbench: --workload must be one of "
            ^ String.concat ", " (List.map (fun (w : Cells.workload) -> w.name) Cells.workloads)
            ^ ", all; --trace 0 or 1");
          exit 2
    in
    print_endline (result_line ~correct:r.correct ~attempted:r.attempted ~failed:r.failed r.metrics)
  end
