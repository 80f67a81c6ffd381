(* Event tracing tests: the ring recorder and the machine's emissions. *)

module M = Sim.Machine
module Trace = Sim.Trace
module Revoker = Ccr.Revoker
module Mrs = Ccr.Mrs

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_ring_basics () =
  let t = Trace.create ~capacity:4 () in
  check_int "empty" 0 (Trace.length t);
  Trace.emit t ~time:10 ~core:0 Trace.Clg_fault 0x1000;
  Trace.emit t ~time:20 ~core:1 Trace.Stw_request 2;
  check_int "two" 2 (Trace.length t);
  check_int "no drops" 0 (Trace.dropped t);
  (match Trace.to_list t with
  | [ a; b ] ->
      check_int "oldest first" 10 a.Trace.time;
      check_int "then next" 20 b.Trace.time;
      check "kind" true (a.Trace.kind = Trace.Clg_fault)
  | _ -> Alcotest.fail "expected two events");
  Trace.clear t;
  check_int "cleared" 0 (Trace.length t)

let test_ring_overwrite () =
  (* capacity rounds up to the next power of two: 3 -> 4 (documented) *)
  let t = Trace.create ~capacity:3 () in
  check_int "effective capacity" 4 (Trace.capacity t);
  for i = 1 to 5 do
    Trace.emit t ~time:i ~core:0 (Trace.Custom "x") i
  done;
  check_int "capacity bound" 4 (Trace.length t);
  check_int "dropped" 1 (Trace.dropped t);
  match Trace.to_list t with
  | [ a; _; _; d ] ->
      check_int "oldest retained" 2 a.Trace.time;
      check_int "newest" 5 d.Trace.time
  | _ -> Alcotest.fail "expected four events"

(* Exactness at every point around the wrap boundary of a power-of-two
   ring: length/total/dropped and the retained window must be right at
   [cap - 1], [cap], and [cap + k] emissions. *)
let test_ring_wrap_boundary () =
  let cap = 8 in
  let t = Trace.create ~capacity:cap () in
  check_int "exact power of two kept" cap (Trace.capacity t);
  let emitted = ref 0 in
  let emit_to n =
    while !emitted < n do
      incr emitted;
      Trace.emit t ~time:!emitted ~core:0 (Trace.Custom "x") !emitted
    done
  in
  let check_window label =
    let n = !emitted in
    check_int (label ^ ": total") n (Trace.total t);
    check_int (label ^ ": length") (min n cap) (Trace.length t);
    check_int (label ^ ": dropped") (max 0 (n - cap)) (Trace.dropped t);
    let expect = List.init (min n cap) (fun i -> n - min n cap + 1 + i) in
    Alcotest.(check (list int))
      (label ^ ": retained window, oldest first")
      expect
      (List.map (fun e -> e.Trace.time) (Trace.to_list t))
  in
  emit_to (cap - 1);
  check_window "one short of full";
  emit_to cap;
  check_window "exactly full";
  emit_to (cap + 1);
  check_window "first overwrite";
  emit_to (2 * cap);
  check_window "full wrap";
  emit_to ((3 * cap) + 3);
  check_window "mid-ring after several wraps";
  (* clear resets the accounting, not the capacity *)
  Trace.clear t;
  check_int "cleared" 0 (Trace.length t);
  check_int "cleared total" 0 (Trace.total t);
  check_int "capacity survives clear" cap (Trace.capacity t)

let test_subscribers_lossless () =
  let t = Trace.create ~capacity:4 () in
  let seen = ref 0 and last_arg = ref (-1) in
  let id =
    Trace.subscribe t (fun e ->
        incr seen;
        last_arg := e.Trace.arg)
  in
  for i = 1 to 100 do
    Trace.emit t ~time:i ~core:0 (Trace.Custom "x") i
  done;
  check_int "ring stays bounded" 4 (Trace.length t);
  check_int "total counts everything" 100 (Trace.total t);
  check_int "dropped accounted" 96 (Trace.dropped t);
  check_int "subscriber saw every event" 100 !seen;
  check_int "in order" 100 !last_arg;
  Trace.unsubscribe t id;
  Trace.emit t ~time:101 ~core:0 (Trace.Custom "x") 101;
  check_int "unsubscribed callback silent" 100 !seen;
  check_int "emission still recorded" 101 (Trace.total t)

let test_multi_subscriber_order () =
  let t = Trace.create () in
  let log = ref [] in
  let id1 = Trace.subscribe t (fun e -> log := (1, e.Trace.arg) :: !log) in
  let id2 = Trace.subscribe t (fun e -> log := (2, e.Trace.arg) :: !log) in
  let id3 = Trace.subscribe t (fun e -> log := (3, e.Trace.arg) :: !log) in
  Trace.emit t ~time:1 ~core:0 (Trace.Custom "x") 7;
  Trace.emit t ~time:2 ~core:0 (Trace.Custom "x") 8;
  Alcotest.(check (list (pair int int)))
    "every subscriber sees every event, in subscription order"
    [ (1, 7); (2, 7); (3, 7); (1, 8); (2, 8); (3, 8) ]
    (List.rev !log);
  (* removing the middle subscriber must not disturb the others' order *)
  Trace.unsubscribe t id2;
  Trace.emit t ~time:3 ~core:0 (Trace.Custom "x") 9;
  Alcotest.(check (list (pair int int)))
    "remaining subscribers keep their relative order"
    [ (1, 7); (2, 7); (3, 7); (1, 8); (2, 8); (3, 8); (1, 9); (3, 9) ]
    (List.rev !log);
  Trace.unsubscribe t id1;
  Trace.unsubscribe t id3

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let count_lines_with s sub =
  List.length (List.filter (fun l -> contains l sub) (String.split_on_char '\n' s))

(* Run [f] with stderr redirected to a file; return what it wrote. *)
let capturing_stderr f =
  let tmp = Filename.temp_file "trace_test" ".err" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stderr in
  flush stderr;
  Unix.dup2 fd Unix.stderr;
  Fun.protect
    ~finally:(fun () ->
      flush stderr;
      Unix.dup2 saved Unix.stderr;
      Unix.close saved;
      Unix.close fd)
    f;
  let ic = open_in tmp in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  Sys.remove tmp;
  s

let test_drop_warning_once () =
  let t = Trace.create ~capacity:2 () in
  Trace.set_warn_on_drop t true;
  let out =
    capturing_stderr (fun () ->
        for i = 1 to 50 do
          Trace.emit t ~time:i ~core:0 (Trace.Custom "x") i
        done)
  in
  check_int "warns exactly once despite 48 drops" 1
    (count_lines_with out "capacity");
  (* clear resets the one-shot: a fresh run may warn again *)
  Trace.clear t;
  let out =
    capturing_stderr (fun () ->
        for i = 1 to 5 do
          Trace.emit t ~time:i ~core:0 (Trace.Custom "x") i
        done)
  in
  check_int "warns once more after clear" 1 (count_lines_with out "capacity");
  (* disabled recorders never warn *)
  let q = Trace.create ~capacity:2 () in
  let out =
    capturing_stderr (fun () ->
        for i = 1 to 50 do
          Trace.emit q ~time:i ~core:0 (Trace.Custom "x") i
        done)
  in
  check_int "silent when not enabled" 0 (count_lines_with out "capacity")

let test_dump_reports_drops () =
  let t = Trace.create ~capacity:2 () in
  for i = 1 to 5 do
    Trace.emit t ~time:i ~core:0 (Trace.Custom "x") i
  done;
  let buf = Buffer.create 256 in
  let f = Format.formatter_of_buffer buf in
  Trace.dump f t;
  Format.pp_print_flush f ();
  check "dump discloses the truncation" true
    (contains (Buffer.contents buf) "dropped")

let test_machine_emissions () =
  let cfg = { M.default_config with heap_bytes = 4 lsl 20; mem_bytes = 16 lsl 20 } in
  let m = M.create cfg in
  let tr = Trace.create () in
  M.attach_tracer m (Some tr);
  let alloc = Alloc.Backend.snmalloc (Alloc.Allocator.create m) in
  let rv = Revoker.create m ~strategy:Revoker.Reloaded ~core:2 () in
  let mrs = Mrs.create m ~alloc ~revoker:rv () in
  ignore
    (M.spawn m ~name:"app" ~core:3 (fun ctx ->
         let table = Mrs.malloc mrs ctx 64 in
         for _ = 1 to 3000 do
           let c = Mrs.malloc mrs ctx 256 in
           let slot = Cheri.Capability.set_addr table (Cheri.Capability.base table) in
           Sim.Machine.store_cap ctx slot c;
           (* barriered loads: these trap when an epoch is in flight *)
           ignore (Sim.Machine.load_cap ctx slot);
           Mrs.free mrs ctx c
         done;
         Mrs.finish mrs ctx));
  M.run m;
  let events = Trace.to_list tr in
  let count kind = List.length (List.filter (fun e -> e.Trace.kind = kind) events) in
  check "epochs traced" true (count Trace.Epoch_begin >= 1);
  check_int "balanced begin/end" (count Trace.Epoch_begin) (count Trace.Epoch_end);
  check "stw triple per epoch" true
    (count Trace.Stw_request = count Trace.Stw_stopped
    && count Trace.Stw_stopped = count Trace.Stw_release
    && count Trace.Stw_request = count Trace.Epoch_begin);
  check "faults traced" true (count Trace.Clg_fault >= 1);
  check "batches traced" true (count Trace.Revoke_batch >= 1);
  (* timestamps are monotone per core *)
  let last = Hashtbl.create 4 in
  List.iter
    (fun e ->
      let prev = Option.value ~default:0 (Hashtbl.find_opt last e.Trace.core) in
      check "monotone per core" true (e.Trace.time >= prev);
      Hashtbl.replace last e.Trace.core e.Trace.time)
    events;
  (* dump renders *)
  let buf = Buffer.create 512 in
  let f = Format.formatter_of_buffer buf in
  Trace.dump f ~last:10 tr;
  Format.pp_print_flush f ();
  check "dump renders" true (String.length (Buffer.contents buf) > 0)

(* ---- recovery-event arguments ----

   The recovery kinds carry load-bearing payloads the model checker's
   branch points key on: [Epoch_resume] names the still-open (odd)
   counter and the retry attempt, [Epoch_abort] the restored (even)
   counter and the consecutive-abort count, [Stw_abandon] the threads
   still unparked and the cycles the watchdog waited. *)

let recovery_rig ~recovery () =
  let cfg =
    { M.default_config with heap_bytes = 1 lsl 20; mem_bytes = 8 lsl 20 }
  in
  let m = M.create cfg in
  let tr = Trace.create ~capacity:16384 () in
  M.attach_tracer m (Some tr);
  let alloc = Alloc.Backend.snmalloc (Alloc.Allocator.create m) in
  let rv = Revoker.create m ~strategy:Revoker.Reloaded ~core:0 ~recovery () in
  let mrs = Mrs.create m ~alloc ~revoker:rv () in
  (m, tr, rv, mrs)

(* a table slot holding a capability makes its page cap-dirty, so the
   epoch's sweep visits it and the sweep hook gets consulted *)
let free_one_cap_region mrs ctx =
  let table = Mrs.malloc mrs ctx 64 in
  let victim = Mrs.malloc mrs ctx 128 in
  let slot =
    Cheri.Capability.set_addr table (Cheri.Capability.base table)
  in
  M.store_cap ctx slot victim;
  Mrs.free mrs ctx victim;
  Mrs.flush mrs ctx

let by_kind events kind =
  List.filter (fun e -> e.Trace.kind = kind) events

let test_epoch_resume_args () =
  let recovery =
    { Revoker.default_recovery with max_crash_retries = 2; backoff_base = 1_000 }
  in
  let m, tr, rv, mrs = recovery_rig ~recovery () in
  let crashes = ref 1 in
  Revoker.set_sweep_hook rv
    (Some
       (fun _ctx _vp ->
         if !crashes > 0 then begin
           decr crashes;
           raise Revoker.Induced_crash
         end));
  ignore
    (M.spawn m ~name:"app" ~core:1 (fun ctx ->
         free_one_cap_region mrs ctx;
         Mrs.wait_drained mrs ctx;
         Mrs.finish mrs ctx));
  M.run m;
  let events = Trace.to_list tr in
  (match by_kind events Trace.Epoch_resume with
  | [ e ] ->
      check "resume names the still-open epoch (odd counter)" true
        (e.Trace.arg land 1 = 1);
      check_int "first retry attempt" 1 e.Trace.arg2
  | l ->
      Alcotest.failf "expected exactly one epoch-resume, saw %d"
        (List.length l));
  check_int "the resume counter agrees with the trace" 1
    (Revoker.recovery_stats rv).Revoker.epoch_resumes;
  check_int "within budget: no abort" 0
    (List.length (by_kind events Trace.Epoch_abort));
  check "the resumed epoch completed" true
    (by_kind events Trace.Epoch_end <> [])

let test_epoch_abort_args () =
  let recovery =
    {
      Revoker.default_recovery with
      max_crash_retries = 1;
      max_epoch_aborts = 5;
      backoff_base = 1_000;
    }
  in
  let m, tr, rv, mrs = recovery_rig ~recovery () in
  let crashes = ref 2 in
  Revoker.set_sweep_hook rv
    (Some
       (fun _ctx _vp ->
         if !crashes > 0 then begin
           decr crashes;
           raise Revoker.Induced_crash
         end));
  ignore
    (M.spawn m ~name:"app" ~core:1 (fun ctx ->
         free_one_cap_region mrs ctx;
         Mrs.wait_drained mrs ctx;
         Mrs.finish mrs ctx));
  M.run m;
  let events = Trace.to_list tr in
  (* crash, resume (attempt 1), crash again: retry budget exhausted *)
  (match by_kind events Trace.Epoch_resume with
  | [ e ] -> check_int "one resume before giving up" 1 e.Trace.arg2
  | l -> Alcotest.failf "expected one epoch-resume, saw %d" (List.length l));
  check_int "an aborted epoch's resume is counted too" 1
    (Revoker.recovery_stats rv).Revoker.epoch_resumes;
  (match by_kind events Trace.Epoch_abort with
  | [ e ] ->
      check "abort restores an even counter" true (e.Trace.arg land 1 = 0);
      check_int "first consecutive abort" 1 e.Trace.arg2
  | l -> Alcotest.failf "expected one epoch-abort, saw %d" (List.length l));
  (* the requeued batch drains on the retried epoch *)
  check "retried epoch completed" true (by_kind events Trace.Epoch_end <> []);
  check_int "quarantine drained" 0 (Mrs.quarantine_bytes mrs)

let test_stw_abandon_args () =
  let watchdog = 30_000 in
  let recovery =
    {
      Revoker.default_recovery with
      watchdog_timeout = watchdog;
      max_quiesce_retries = 1;
      max_epoch_aborts = 50;
      backoff_base = 1_000;
    }
  in
  let m, tr, _rv, mrs = recovery_rig ~recovery () in
  ignore
    (M.spawn m ~name:"app" ~core:1 (fun ctx ->
         free_one_cap_region mrs ctx;
         (* every syscall now declares a drain far past the watchdog, so
            a quiesce landing inside one must abandon *)
         M.set_drain_hook m (Some (fun _ctx _drain -> 1_000_000_000));
         Kernel.Syscall.perform_service ctx ~service:200_000;
         M.set_drain_hook m None;
         Mrs.wait_drained mrs ctx;
         Mrs.finish mrs ctx));
  M.run m;
  let events = Trace.to_list tr in
  let abandons = by_kind events Trace.Stw_abandon in
  check "watchdog fired at least once" true (abandons <> []);
  List.iter
    (fun e ->
      check "all threads had parked (the drain stalled, not a thread)" true
        (e.Trace.arg = 0);
      check "a positive wait was recorded" true (e.Trace.arg2 > 0);
      check "abandoned before the deadline passed in full" true
        (e.Trace.arg2 < watchdog))
    abandons;
  (* every quiesce either stops the world or abandons it — never both,
     never neither *)
  let n k = List.length (by_kind events k) in
  check_int "request = stopped + abandon"
    (n Trace.Stw_request)
    (n Trace.Stw_stopped + n Trace.Stw_abandon);
  (* the exhausted retry budget surfaces as epoch aborts with an even
     (restored) counter and a growing consecutive count *)
  let aborts = by_kind events Trace.Epoch_abort in
  check "watchdog exhaustion aborted at least one epoch" true (aborts <> []);
  List.iteri
    (fun i e ->
      check "abort restores an even counter" true (e.Trace.arg land 1 = 0);
      check_int "consecutive-abort count" (i + 1) e.Trace.arg2)
    aborts;
  check "aborted epochs were retried to completion" true
    (by_kind events Trace.Epoch_end <> []);
  check_int "quarantine drained" 0 (Mrs.quarantine_bytes mrs)

let test_detach () =
  let cfg = { M.default_config with heap_bytes = 1 lsl 20; mem_bytes = 8 lsl 20 } in
  let m = M.create cfg in
  check "no tracer by default" true (M.tracer m = None);
  let tr = Trace.create () in
  M.attach_tracer m (Some tr);
  M.attach_tracer m None;
  ignore (M.spawn m ~name:"a" ~core:0 (fun ctx -> M.charge ctx 10));
  M.run m;
  check_int "nothing recorded when detached" 0 (Trace.length tr)

let () =
  Alcotest.run "trace"
    [
      ( "trace",
        [
          Alcotest.test_case "ring basics" `Quick test_ring_basics;
          Alcotest.test_case "overwrite" `Quick test_ring_overwrite;
          Alcotest.test_case "wrap boundary" `Quick test_ring_wrap_boundary;
          Alcotest.test_case "drop warning once" `Quick
            test_drop_warning_once;
          Alcotest.test_case "subscribers lossless" `Quick
            test_subscribers_lossless;
          Alcotest.test_case "multi-subscriber order" `Quick
            test_multi_subscriber_order;
          Alcotest.test_case "dump reports drops" `Quick
            test_dump_reports_drops;
          Alcotest.test_case "machine emissions" `Quick test_machine_emissions;
          Alcotest.test_case "epoch-resume args" `Quick test_epoch_resume_args;
          Alcotest.test_case "epoch-abort args" `Quick test_epoch_abort_args;
          Alcotest.test_case "stw-abandon args" `Quick test_stw_abandon_args;
          Alcotest.test_case "detach" `Quick test_detach;
        ] );
    ]
