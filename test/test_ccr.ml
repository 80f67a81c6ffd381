(* Core revocation machinery tests: the shadow bitmap, the epoch counter
   protocol, page sweeping, policy, the mrs shim, kernel hoards, and the
   munmap quarantine. *)

module M = Sim.Machine
module Cap = Cheri.Capability
module Allocator = Alloc.Allocator
module Revmap = Ccr.Revmap
module Epoch = Ccr.Epoch
module Sweep = Ccr.Sweep
module Policy = Ccr.Policy
module Mrs = Ccr.Mrs
module Revoker = Ccr.Revoker
module Layout = Vm.Layout

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cfg = { M.default_config with heap_bytes = 4 lsl 20; mem_bytes = 16 lsl 20 }

let with_machine f =
  let m = M.create cfg in
  let out = ref None in
  ignore (M.spawn m ~name:"app" ~core:3 (fun ctx -> out := Some (f m ctx)));
  M.run m;
  Option.get !out

let heap_base m = (M.layout m).Layout.heap_base

let map_heap m ctx pages =
  M.map ctx ~vaddr:(heap_base m) ~len:(pages * 4096) ~writable:true;
  Cap.set_bounds (Cap.root ~length:(1 lsl 32)) ~base:(heap_base m)
    ~length:(pages * 4096)

(* ---- revmap ---- *)

let test_revmap_paint_test_clear () =
  with_machine (fun m ctx ->
      let _heap = map_heap m ctx 4 in
      let rm = Revmap.create m in
      let a = heap_base m + 256 in
      check "clean initially" false (Revmap.test rm ctx a);
      Revmap.paint rm ctx ~addr:a ~size:64;
      check "painted" true (Revmap.test rm ctx a);
      check "painted end" true (Revmap.test rm ctx (a + 48));
      check "not beyond" false (Revmap.test rm ctx (a + 64));
      check "not before" false (Revmap.test rm ctx (a - 16));
      check_int "bit count" 4 (Revmap.set_bits rm);
      Revmap.clear rm ctx ~addr:a ~size:64;
      check "cleared" false (Revmap.test rm ctx a);
      check_int "bits zero" 0 (Revmap.set_bits rm))

let test_revmap_word_boundaries () =
  with_machine (fun m ctx ->
      let _ = map_heap m ctx 4 in
      let rm = Revmap.create m in
      (* a range spanning a 64-bit shadow word boundary: granules 60..70 *)
      let a = heap_base m + (60 * 16) in
      Revmap.paint rm ctx ~addr:a ~size:(11 * 16);
      for g = 58 to 72 do
        let inside = g >= 60 && g < 71 in
        check (Printf.sprintf "granule %d" g) inside
          (Revmap.test rm ctx (heap_base m + (g * 16)))
      done;
      check_int "bits" 11 (Revmap.set_bits rm))

let test_revmap_unaligned_rejected () =
  with_machine (fun m ctx ->
      let _ = map_heap m ctx 1 in
      let rm = Revmap.create m in
      check "unaligned raises" true
        (try Revmap.paint rm ctx ~addr:(heap_base m + 3) ~size:16; false
         with Invalid_argument _ -> true);
      check "outside heap raises" true
        (try Revmap.paint rm ctx ~addr:16 ~size:16; false
         with Invalid_argument _ -> true))

let test_revmap_revoke_cap () =
  with_machine (fun m ctx ->
      let heap = map_heap m ctx 4 in
      let rm = Revmap.create m in
      let victim = Cap.set_bounds heap ~base:(heap_base m + 1024) ~length:64 in
      let bystander = Cap.set_bounds heap ~base:(heap_base m + 2048) ~length:64 in
      Revmap.paint rm ctx ~addr:(Cap.base victim) ~size:64;
      check "victim untagged" false (Cap.tag (Revmap.revoke_cap rm ctx victim));
      check "bystander kept" true (Cap.tag (Revmap.revoke_cap rm ctx bystander));
      (* revocation tests the BASE, even when the cursor wandered *)
      let wandered = Cap.incr_addr victim 48 in
      check "wandered victim still revoked" false
        (Cap.tag (Revmap.revoke_cap rm ctx wandered));
      check "host probe agrees" true (Revmap.test_host rm (Cap.base victim)))

let prop_revmap_paint_clear_roundtrip =
  QCheck.Test.make ~name:"paint;clear leaves the bitmap empty" ~count:50
    QCheck.(small_list (pair (int_bound 200) (int_bound 30)))
    (fun ranges ->
      with_machine (fun m ctx ->
          let _ = map_heap m ctx 2 in
          let rm = Revmap.create m in
          let norm =
            List.map (fun (g, l) -> (heap_base m + (g * 16), 16 * (l + 1))) ranges
          in
          List.iter (fun (addr, size) -> Revmap.paint rm ctx ~addr ~size) norm;
          List.iter (fun (addr, size) -> Revmap.clear rm ctx ~addr ~size) norm;
          Revmap.set_bits rm = 0))

(* A verbatim copy of the shadow-bitmap update as it was before it became
   allocation-free (a moved shadow capability and an [rmw_u64] closure
   per word): the reference [Revmap.paint]/[clear] are held to. *)
module Revmap_reference = struct
  type t = { m : M.t; layout : Layout.t; shadow_cap : Cap.t; mutable bits : int }

  let granule = 16

  let create m =
    let layout = M.layout m in
    let root = Cap.root ~length:(1 lsl 40) in
    let shadow_cap =
      Cap.set_bounds root ~base:layout.Layout.shadow_base
        ~length:(layout.Layout.shadow_limit - layout.Layout.shadow_base)
    in
    let shadow_cap =
      Cap.restrict_perms shadow_cap
        Cheri.Perms.(union load (union store global))
    in
    { m; layout; shadow_cap; bits = 0 }

  let popcount64 = Tagmem.Mem.popcount64

  let check_range t ~addr ~size =
    if addr land (granule - 1) <> 0 || size land (granule - 1) <> 0 || size <= 0 then
      invalid_arg "Revmap: unaligned paint/clear";
    if not (Layout.contains_heap t.layout addr && addr + size <= t.layout.Layout.heap_limit)
    then invalid_arg "Revmap: range outside heap"

  let rmw_range t ctx ~addr ~size ~set =
    check_range t ~addr ~size;
    let g0 = (addr - t.layout.Layout.heap_base) / granule in
    let g1 = g0 + (size / granule) in
    let w = ref (g0 / 64) in
    let last_word = (g1 - 1) / 64 in
    let flipped = ref 0 in
    while !w <= last_word do
      let lo_bit = max g0 (!w * 64) - (!w * 64) in
      let hi_bit = min g1 ((!w + 1) * 64) - (!w * 64) in
      let mask =
        if hi_bit - lo_bit = 64 then -1L
        else
          Int64.shift_left
            (Int64.sub (Int64.shift_left 1L (hi_bit - lo_bit)) 1L)
            lo_bit
      in
      let word_addr = t.layout.Layout.shadow_base + (!w * 8) in
      let c = Cap.set_addr t.shadow_cap word_addr in
      let old =
        M.rmw_u64 ctx c (fun old ->
            if set then Int64.logor old mask else Int64.logand old (Int64.lognot mask))
      in
      let nw =
        if set then Int64.logor old mask else Int64.logand old (Int64.lognot mask)
      in
      flipped := !flipped + popcount64 (Int64.logxor nw old);
      incr w
    done;
    !flipped

  let paint t ctx ~addr ~size =
    let delta = rmw_range t ctx ~addr ~size ~set:true in
    t.bits <- t.bits + delta;
    M.trace_emit t.m ~time:(M.now ctx) ~core:(M.core_id ctx)
      ~pid:(M.ctx_pid ctx) ~arg2:size Sim.Trace.Paint addr

  let clear t ctx ~addr ~size =
    let delta = rmw_range t ctx ~addr ~size ~set:false in
    t.bits <- t.bits - delta;
    M.trace_emit t.m ~time:(M.now ctx) ~core:(M.core_id ctx)
      ~pid:(M.ctx_pid ctx) ~arg2:size Sim.Trace.Unpaint addr
end

type paint_ops = {
  paint : M.ctx -> addr:int -> size:int -> unit;
  clear : M.ctx -> addr:int -> size:int -> unit;
  bits : unit -> int;
}

let revmap_ops m =
  let rm = Revmap.create m in
  {
    paint = (fun ctx ~addr ~size -> Revmap.paint rm ctx ~addr ~size);
    clear = (fun ctx ~addr ~size -> Revmap.clear rm ctx ~addr ~size);
    bits = (fun () -> Revmap.set_bits rm);
  }

let reference_ops m =
  let rm = Revmap_reference.create m in
  {
    paint = (fun ctx ~addr ~size -> Revmap_reference.paint rm ctx ~addr ~size);
    clear = (fun ctx ~addr ~size -> Revmap_reference.clear rm ctx ~addr ~size);
    bits = (fun () -> rm.Revmap_reference.bits);
  }

let shadow_pages = 8

(* Run paint/clear [ops] (set?, first granule, granules) on core 3 while
   a sleeper shares the core, so quantum expiries inside the updates
   switch threads; then read back everything the updates can touch. *)
let observe_paint mk ops =
  let m = M.create cfg in
  let tr = Sim.Trace.create ~capacity:65536 () in
  M.attach_tracer m (Some tr);
  let bits = ref 0 in
  ignore
    (M.spawn m ~name:"app" ~core:3 (fun ctx ->
         let _ = map_heap m ctx shadow_pages in
         let o = mk m in
         List.iter
           (fun (set, g, n) ->
             let addr = heap_base m + (g * 16) and size = n * 16 in
             if set then o.paint ctx ~addr ~size else o.clear ctx ~addr ~size)
           ops;
         bits := o.bits ()));
  ignore
    (M.spawn m ~name:"sleeper" ~core:3 (fun ctx ->
         for _ = 1 to 40 do
           M.sleep ctx 700
         done));
  M.run m;
  let layout = M.layout m in
  let shadow =
    List.init
      ((layout.Layout.shadow_limit - layout.Layout.shadow_base) / 8)
      (fun w ->
        match Vm.Aspace.translate (M.aspace m) (layout.Layout.shadow_base + (w * 8)) with
        | Some (pa, _) -> Tagmem.Mem.read_u64 (M.mem m) pa
        | None -> 0L)
  in
  let cores = List.init (M.num_cores m) Fun.id in
  let events = ref [] in
  Sim.Trace.iter tr (fun e -> events := e :: !events);
  ( shadow,
    !bits,
    List.map (M.core_clock m) cores,
    List.map (M.cache_stats m) cores,
    List.rev !events )

let paint_ops_gen =
  QCheck.Gen.(
    list_size (int_range 1 40)
      (let* set = bool in
       let* g = int_bound ((shadow_pages * 256) - 1) in
       let* n = int_range 1 200 in
       return (set, g, min n ((shadow_pages * 256) - g))))

let prop_paint_clear_matches_reference =
  QCheck.Test.make ~name:"paint/clear == pre-rewrite reference" ~count:60
    (QCheck.make
       ~print:(fun ops ->
         String.concat " "
           (List.map
              (fun (set, g, n) -> Printf.sprintf "%c%d+%d" (if set then 'P' else 'C') g n)
              ops))
       paint_ops_gen)
    (fun ops -> observe_paint revmap_ops ops = observe_paint reference_ops ops)

(* ---- epoch ---- *)

let test_epoch_protocol () =
  with_machine (fun _ ctx ->
      let e = Epoch.create () in
      check_int "starts at zero" 0 (Epoch.counter e);
      check "not in progress" false (Epoch.in_progress e);
      Epoch.begin_revocation e ctx;
      check "odd during" true (Epoch.in_progress e);
      check "begin twice raises" true
        (try Epoch.begin_revocation e ctx; false with Invalid_argument _ -> true);
      Epoch.end_revocation e ctx;
      check_int "two after one pass" 2 (Epoch.counter e);
      (* §2.2.3: painted at even e -> clean at e+2; odd -> e+3 *)
      check_int "even target" 2 (Epoch.clean_target 0);
      check_int "odd target" 4 (Epoch.clean_target 1);
      check "clean for 0" true (Epoch.is_clean e ~painted_at:0);
      check "not clean for 1" false (Epoch.is_clean e ~painted_at:1);
      check "not clean for 2" false (Epoch.is_clean e ~painted_at:2);
      Epoch.begin_revocation e ctx;
      Epoch.end_revocation e ctx;
      check "clean for 1 after second pass" true (Epoch.is_clean e ~painted_at:1))

(* ---- sweep ---- *)

let test_sweep_page_revokes () =
  with_machine (fun m ctx ->
      let heap = map_heap m ctx 4 in
      let rm = Revmap.create m in
      let victim = Cap.set_bounds heap ~base:(heap_base m + 4096) ~length:64 in
      let keeper = Cap.set_bounds heap ~base:(heap_base m + 8192) ~length:64 in
      (* plant capabilities in page 0 of the heap *)
      let slot n = Cap.set_addr heap (heap_base m + (n * 16)) in
      M.store_cap ctx (slot 0) victim;
      M.store_cap ctx (slot 1) keeper;
      M.store_cap ctx (slot 2) victim;
      Revmap.paint rm ctx ~addr:(Cap.base victim) ~size:64;
      let pte =
        match Vm.Aspace.translate (M.aspace m) (heap_base m) with
        | Some (_, pte) -> pte
        | None -> Alcotest.fail "unmapped"
      in
      let st = Sweep.sweep_page ctx rm ~pte in
      check_int "granules" 256 st.Sweep.granules;
      check_int "tagged seen" 3 st.Sweep.tagged;
      check_int "revoked" 2 st.Sweep.revoked;
      check "victim slot untagged" false (Cap.tag (M.load_cap ctx (slot 0)));
      check "keeper survives" true (Cap.tag (M.load_cap ctx (slot 1)));
      (* idempotent *)
      let st2 = Sweep.sweep_page ctx rm ~pte in
      check_int "second sweep revokes nothing" 0 st2.Sweep.revoked)

let test_sweep_regfile_and_hoard () =
  with_machine (fun m ctx ->
      let heap = map_heap m ctx 4 in
      let rm = Revmap.create m in
      let victim = Cap.set_bounds heap ~base:(heap_base m + 4096) ~length:64 in
      let keeper = Cap.set_bounds heap ~base:(heap_base m + 8192) ~length:64 in
      Revmap.paint rm ctx ~addr:(Cap.base victim) ~size:64;
      let regs = Sim.Regfile.create () in
      Sim.Regfile.set regs 0 victim;
      Sim.Regfile.set regs 1 keeper;
      check_int "one revoked in regs" 1 (Sweep.scan_regfile ctx rm regs);
      check "reg untagged" false (Cap.tag (Sim.Regfile.get regs 0));
      check "reg kept" true (Cap.tag (Sim.Regfile.get regs 1));
      let h = Kernel.Hoard.create () in
      let hv = Kernel.Hoard.register h ctx victim in
      let hk = Kernel.Hoard.register h ctx keeper in
      check_int "one revoked in hoard" 1 (Sweep.scan_hoard ctx rm h);
      check "hoard victim untagged" false (Cap.tag (Kernel.Hoard.retrieve h ctx hv));
      check "hoard keeper kept" true (Cap.tag (Kernel.Hoard.retrieve h ctx hk)))

(* ---- policy ---- *)

let test_policy_thresholds () =
  let p = Policy.default in
  check "below min: no revoke" false
    (Policy.should_revoke p ~live:(1 lsl 20) ~quarantine:(p.Policy.min_quarantine - 1));
  check "above min and fraction" true
    (Policy.should_revoke p ~live:(1 lsl 18) ~quarantine:(p.Policy.min_quarantine + 1));
  (* quarantine must exceed 1/4 of total = 1/3 of live *)
  let live = 16 lsl 20 in
  check "at fraction boundary" false (Policy.should_revoke p ~live ~quarantine:(live / 3 - 100_000));
  check "above fraction" true
    (Policy.should_revoke p ~live ~quarantine:(live / 2));
  check "block only when far over" false (Policy.should_block p ~live ~quarantine:(live / 3));
  check "block when quarantine exceeds live" true
    (Policy.should_block p ~live ~quarantine:(live * 11 / 10))

(* ---- mrs + revoker end-to-end (single strategy here; the full
   strategy matrix lives in test_revoker.ml) ---- *)

let mk_rt strategy =
  let m = M.create cfg in
  let alloc = Alloc.Backend.snmalloc (Allocator.create m) in
  let rv = Revoker.create m ~strategy ~core:2 () in
  let mrs = Mrs.create m ~alloc ~revoker:rv () in
  (m, alloc, rv, mrs)

let test_mrs_quarantine_delays_reuse () =
  let m, _alloc, rv, mrs = mk_rt Revoker.Reloaded in
  let ok = ref false in
  ignore (M.spawn m ~name:"app" ~core:3 (fun ctx ->
      let a = Mrs.malloc mrs ctx 64 in
      let base = Cap.base a in
      Mrs.free mrs ctx a;
      (* immediately after free, the same address must NOT come back *)
      let b = Mrs.malloc mrs ctx 64 in
      ok := Cap.base b <> base;
      Mrs.finish mrs ctx));
  M.run m;
  check "no immediate reuse" true !ok;
  check_int "no revocation for tiny quarantine" 0 (Revoker.revocation_count rv)

let test_mrs_epoch_protocol_respected () =
  let m, _alloc, rv, mrs = mk_rt Revoker.Reloaded in
  ignore (M.spawn m ~name:"app" ~core:3 (fun ctx ->
      (* free enough to trigger revocations and observe reuse only after
         a full epoch *)
      let freed = Hashtbl.create 64 in
      for i = 1 to 3000 do
        let c = Mrs.malloc mrs ctx 256 in
        let painted_at = Epoch.counter (Revoker.epoch rv) in
        Mrs.free mrs ctx c;
        Hashtbl.replace freed (Cap.base c) painted_at;
        if i mod 100 = 0 then M.yield ctx
      done;
      Mrs.finish mrs ctx));
  (* reuse check happens via allocator internals: a base handed out again
     while its paint epoch is not clean would violate the protocol; the
     mrs on_clean path runs through Revmap.clear which asserts ranges, and
     double-accounting would trip the outstanding counter; reaching here
     with revocations > 0 exercises the full cycle *)
  M.run m;
  check "revocations happened" true (Revoker.revocation_count rv > 0);
  (* only the trailing, never-triggered buffer may remain: everything
     enqueued must have been dequarantined *)
  check "no batch left undrained" true
    (Mrs.quarantine_bytes mrs <= 2 * Policy.default.Policy.min_quarantine)

let test_mrs_double_free_detected () =
  let m, _alloc, _rv, mrs = mk_rt Revoker.Paint_sync in
  let caught = ref false in
  ignore (M.spawn m ~name:"app" ~core:3 (fun ctx ->
      let a = Mrs.malloc mrs ctx 64 in
      Mrs.free mrs ctx a;
      (try Mrs.free mrs ctx a with Invalid_argument _ -> caught := true);
      Mrs.finish mrs ctx));
  M.run m;
  check "double free detected" true !caught

let test_mrs_stats () =
  let m, _alloc, _rv, mrs = mk_rt Revoker.Cherivoke in
  ignore (M.spawn m ~name:"app" ~core:3 (fun ctx ->
      for _ = 1 to 2000 do
        let c = Mrs.malloc mrs ctx 256 in
        Mrs.free mrs ctx c
      done;
      Mrs.finish mrs ctx));
  M.run m;
  let st = Mrs.stats mrs in
  check "sum freed counted" true (st.Mrs.sum_freed_bytes >= 2000 * 256);
  check "live samples per trigger" true
    (List.length st.Mrs.live_samples >= st.Mrs.revocations)

(* ---- kernel ---- *)

let test_hoard_basics () =
  with_machine (fun m ctx ->
      ignore m;
      let h = Kernel.Hoard.create () in
      let c = Cap.root ~length:4096 in
      let k = Kernel.Hoard.register h ctx c in
      check_int "size" 1 (Kernel.Hoard.size h);
      check "retrieve" true (Cap.equal c (Kernel.Hoard.retrieve h ctx k));
      Kernel.Hoard.deregister h ctx k;
      check_int "empty" 0 (Kernel.Hoard.size h);
      check "missing raises" true
        (try ignore (Kernel.Hoard.retrieve h ctx k); false with Not_found -> true))

let test_syscall_drain_state () =
  let m = M.create cfg in
  ignore (M.spawn m ~name:"app" ~core:3 (fun ctx ->
      Kernel.Syscall.perform ~profile:Kernel.Syscall.light_profile ctx));
  M.run m;
  check "completed" true true

(* ---- munmap quarantine ---- *)

let test_munmap_quarantine_cycle () =
  let m, _alloc, rv, mrs = mk_rt Revoker.Reloaded in
  let released = ref (-1) in
  ignore (M.spawn m ~name:"app" ~core:3 (fun ctx ->
      let l = M.layout m in
      let base = l.Layout.heap_base + (256 * 4096) in
      M.map ctx ~vaddr:base ~len:(4 * 4096) ~writable:true;
      let resv = Vm.Reservation.make ~base ~length:(4 * 4096) in
      Vm.Reservation.unmap_part resv ~off:0 ~len:(4 * 4096);
      let mq = Ccr.Munmap.create rv in
      Ccr.Munmap.quarantine mq ctx resv;
      check_int "pending" 1 (Ccr.Munmap.pending mq);
      check_int "not clean yet" 0 (Ccr.Munmap.poll mq ctx);
      (* force revocations by churning the mrs heap *)
      for _ = 1 to 4000 do
        let c = Mrs.malloc mrs ctx 256 in
        Mrs.free mrs ctx c
      done;
      Epoch.wait_clean (Revoker.epoch rv) ctx ~painted_at:0;
      released := Ccr.Munmap.poll mq ctx;
      check "reservation released" true
        (Vm.Reservation.state resv = Vm.Reservation.Released);
      Mrs.finish mrs ctx));
  M.run m;
  check_int "one released" 1 !released

(* ---- host allocation on the revocation path ---- *)

(* Minor-heap words allocated per call of [f], over [n] calls after a
   warm-up. *)
let words_per_call ?(n = 2_000) f =
  for _ = 1 to 50 do
    f ()
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

(* Bytecode boxes what native code keeps in registers, so the counts
   below hold in native code only. *)
let native_only () = if Sys.backend_type <> Sys.Native then Alcotest.skip ()

let test_paint_clear_allocation () =
  native_only ();
  let per_call =
    with_machine (fun m ctx ->
        let _ = map_heap m ctx 4 in
        let rm = Revmap.create m in
        (* 1,040 bytes from granule 60: three shadow words *)
        let addr = heap_base m + (60 * 16) and size = 65 * 16 in
        words_per_call (fun () ->
            Revmap.paint rm ctx ~addr ~size;
            Revmap.clear rm ctx ~addr ~size)
        /. 2.0)
  in
  if per_call >= 1.0 then
    Alcotest.failf "Revmap.paint/clear allocate %.2f words per call" per_call

(* Two pages, one holding 1 and one 200 tagged, unpainted capabilities:
   repeated sweeps see the same page each time, so the difference is the
   words per tagged granule (none) and the 1-capability page bounds the
   per-page constant (the returned [stats] record). *)
let test_sweep_page_allocation () =
  native_only ();
  let w1, w200 =
    with_machine (fun m ctx ->
        let heap = map_heap m ctx 4 in
        let rm = Revmap.create m in
        let plant page count =
          for i = 0 to count - 1 do
            let va = heap_base m + (page * 4096) + (i * 16) in
            M.store_cap_at ctx heap va (Cap.set_bounds heap ~base:va ~length:16)
          done;
          match Vm.Aspace.translate (M.aspace m) (heap_base m + (page * 4096)) with
          | Some (_, pte) -> pte
          | None -> Alcotest.fail "unmapped"
        in
        let p1 = plant 0 1 and p200 = plant 1 200 in
        ( words_per_call (fun () -> ignore (Sweep.sweep_page ctx rm ~pte:p1)),
          words_per_call (fun () -> ignore (Sweep.sweep_page ctx rm ~pte:p200)) ))
  in
  if w200 -. w1 >= 0.5 then
    Alcotest.failf "sweep_page: %.2f words for 1 tagged granule, %.2f for 200" w1 w200;
  if w1 > 8.0 then Alcotest.failf "sweep_page allocates %.2f words per page" w1

let () =
  Alcotest.run "ccr"
    [
      ( "revmap",
        [
          Alcotest.test_case "paint/test/clear" `Quick test_revmap_paint_test_clear;
          Alcotest.test_case "word boundaries" `Quick test_revmap_word_boundaries;
          Alcotest.test_case "unaligned" `Quick test_revmap_unaligned_rejected;
          Alcotest.test_case "revoke_cap" `Quick test_revmap_revoke_cap;
        ] );
      ("epoch", [ Alcotest.test_case "protocol" `Quick test_epoch_protocol ]);
      ( "sweep",
        [
          Alcotest.test_case "page" `Quick test_sweep_page_revokes;
          Alcotest.test_case "regfile/hoard" `Quick test_sweep_regfile_and_hoard;
        ] );
      ("policy", [ Alcotest.test_case "thresholds" `Quick test_policy_thresholds ]);
      ( "mrs",
        [
          Alcotest.test_case "quarantine delays reuse" `Quick test_mrs_quarantine_delays_reuse;
          Alcotest.test_case "epoch protocol" `Quick test_mrs_epoch_protocol_respected;
          Alcotest.test_case "double free" `Quick test_mrs_double_free_detected;
          Alcotest.test_case "stats" `Quick test_mrs_stats;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "hoard" `Quick test_hoard_basics;
          Alcotest.test_case "syscall" `Quick test_syscall_drain_state;
        ] );
      ("munmap", [ Alcotest.test_case "quarantine cycle" `Quick test_munmap_quarantine_cycle ]);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_revmap_paint_clear_roundtrip; prop_paint_clear_matches_reference ] );
      ( "allocation",
        [
          Alcotest.test_case "paint+clear under a word" `Quick test_paint_clear_allocation;
          Alcotest.test_case "sweep words independent of tags" `Quick
            test_sweep_page_allocation;
        ] );
    ]
