(* Per-call host cost of each layer's public entry points, timed in
   isolation: batches of calls on a persistent rig, the median batch
   reported as nanoseconds per call. *)

module M = Sim.Machine
module Cap = Cheri.Capability

let now = Unix.gettimeofday

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Warm up (first calls may carve chunks or fill tables), calibrate a
   batch to at least 2 ms, then run batches for [budget] seconds (at
   least five) and return the median ns per call. *)
let ns_per_call ?(budget = 0.12) f =
  let batch n =
    let t0 = now () in
    for _ = 1 to n do
      f ()
    done;
    now () -. t0
  in
  ignore (batch 1000);
  let rec calibrate n = if batch n < 0.002 && n < 1 lsl 28 then calibrate (2 * n) else n in
  let n = calibrate 1 in
  let t_end = now () +. budget in
  let rec go acc k =
    if k >= 5 && now () >= t_end then acc
    else go ((batch n *. 1e9 /. float_of_int n) :: acc) (k + 1)
  in
  median (go [] 0)

(* Heap words allocated per call: exact, since the loop is deterministic. *)
let words_per_call f =
  let n = 100_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

(* A machine whose context is captured from a finished thread and reused
   with an unbounded quantum, so no timed call ever needs to yield. *)
type rig = {
  m : M.t;
  alloc : Alloc.Allocator.t;
  rm : Ccr.Revmap.t;
  ctx : M.ctx;
  obj : Cap.t;  (** 4 KiB object holding one planted capability *)
  pages : Cap.t array;  (** one capability per page of a 4 MiB object *)
}

let make_rig () =
  let config =
    {
      M.default_config with
      heap_bytes = 16 lsl 20;
      mem_bytes = 48 lsl 20;
      quantum = max_int;
    }
  in
  let m = M.create config in
  let alloc = Alloc.Allocator.create m in
  let rm = Ccr.Revmap.create m in
  let holder = ref None in
  ignore
    (M.spawn m ~name:"perfbench" ~core:3 (fun ctx ->
         let obj = Alloc.Allocator.malloc alloc ctx 4096 in
         M.store_cap ctx (Cap.set_addr obj (Cap.base obj)) obj;
         let big = Alloc.Allocator.malloc alloc ctx (4 lsl 20) in
         let pages =
           Array.init 1024 (fun i -> Cap.set_addr big (Cap.base big + (i * 4096)))
         in
         Array.iter (fun c -> M.store_u64 ctx c 1L) pages;
         holder := Some (ctx, obj, pages)));
  M.run m;
  let ctx, obj, pages = Option.get !holder in
  { m; alloc; rm; ctx; obj; pages }

let pte_of r va =
  match Vm.Aspace.translate (M.aspace r.m) va with
  | Some (_, pte) -> pte
  | None -> failwith "perfbench: rig page not mapped"

(* A thread-switching round trip: two threads on one core yielding to
   each other, ns per yield. *)
let yield_ns () =
  let once () =
    let m = M.create M.default_config in
    let n = 20_000 in
    for k = 0 to 1 do
      ignore
        (M.spawn m ~name:(Printf.sprintf "y%d" k) ~core:3 (fun ctx ->
             for _ = 1 to n do
               M.yield ctx
             done))
    done;
    let t0 = now () in
    M.run m;
    (now () -. t0) *. 1e9 /. float_of_int (2 * n)
  in
  median (List.init 5 (fun _ -> once ()))

type measure = { name : string; unit : string; value : float }

(* [sizes]: the allocation sizes the workload draws, sampled up front. *)
let measure ~span ~sizes ~fleet_cfg =
  let r = make_rig () in
  let out = ref [] in
  let add name unit value = out := { name; unit; value } :: !out in
  let timed name f = span name (fun () -> add name "ns" (ns_per_call f)) in
  let base = Cap.base r.obj in
  (* cheri *)
  let i = ref 0 in
  let set_addr () =
    incr i;
    ignore (Sys.opaque_identity (Cap.set_addr r.obj (base + (!i land 4095))))
  in
  timed "cheri.set_addr_ns" set_addr;
  add "cheri.set_addr_words" "words" (words_per_call set_addr);
  let root = Cap.root ~length:(1 lsl 32) in
  timed "cheri.set_bounds_ns" (fun () ->
      let c = Cap.set_bounds root ~base:65536 ~length:256 in
      ignore (Sys.opaque_identity (Cap.restrict_perms c Cheri.Perms.read_write)));
  timed "cheri.compress_ns" (fun () ->
      ignore
        (Sys.opaque_identity
           (Cheri.Compress.representable ~base:123456 ~length:1234567)));
  (* tagmem *)
  let cache = Tagmem.Cache.create () in
  timed "tagmem.cache_access_ns" (fun () ->
      incr i;
      ignore
        (Tagmem.Cache.access cache ~addr:(!i * 48 land 0xfffff)
           ~write:(!i land 3 = 0)));
  let mem = Tagmem.Mem.create ~size:(1 lsl 16) in
  let c64 = Cap.set_bounds (Cap.root ~length:(1 lsl 16)) ~base:256 ~length:64 in
  timed "tagmem.cap_store_load_ns" (fun () ->
      Tagmem.Mem.write_cap mem 512 c64;
      ignore (Sys.opaque_identity (Tagmem.Mem.read_cap mem 512)));
  (* vm: 1024 pages cycled through a 256-entry TLB miss on every load *)
  let np = Array.length r.pages in
  timed "vm.tlb_miss_load_ns" (fun () ->
      incr i;
      ignore (M.load_u64 r.ctx r.pages.(!i land (np - 1))));
  let pm = Vm.Pmap.create ~asid:99 in
  for vp = 0 to 4095 do
    Vm.Pmap.enter pm ~vpage:vp (Vm.Pte.make ~frame:vp ~writable:true ~clg:false)
  done;
  Vm.Pmap.enter pm ~vpage:8192 (Vm.Pte.make ~frame:1 ~writable:true ~clg:false);
  timed "vm.pmap_lookup_hit_ns" (fun () ->
      ignore (Sys.opaque_identity (Vm.Pmap.lookup pm ~vpage:7)));
  (* vpages 0 and 8192 share a memo slot, so each lookup evicts the other *)
  timed "vm.pmap_lookup_miss_ns" (fun () ->
      incr i;
      ignore (Sys.opaque_identity (Vm.Pmap.lookup pm ~vpage:(!i land 1 * 8192))));
  (* machine *)
  let slot = Cap.set_addr r.obj base in
  timed "machine.load_u64_ns" (fun () -> ignore (M.load_u64 r.ctx slot));
  span "machine.yield_ns" (fun () -> add "machine.yield_ns" "ns" (yield_ns ()));
  let tr = Sim.Trace.create () in
  let seen = ref 0 in
  ignore (Sim.Trace.subscribe tr (fun _ -> incr seen));
  timed "machine.trace_emit_ns" (fun () ->
      Sim.Trace.emit tr ~time:!i ~core:3 ~arg2:1 Sim.Trace.Page_sweep 4096);
  (* alloc: the workload's own size mix *)
  let ns = Array.length sizes in
  let mf () =
    incr i;
    let c = Alloc.Allocator.malloc r.alloc r.ctx sizes.(!i land (ns - 1)) in
    Alloc.Allocator.free r.alloc r.ctx c
  in
  timed "alloc.malloc_free_ns" mf;
  add "alloc.malloc_free_words" "words" (words_per_call mf);
  (* core *)
  let pte = pte_of r base in
  timed "core.sweep_page_ns" (fun () ->
      ignore (Ccr.Sweep.sweep_page r.ctx r.rm ~pte));
  (* a capability load from a trapping page: the fault, its page sweep
     and the PTE update, as the Reloaded barrier does *)
  M.set_clg_fault_handler r.m
    (Some
       (fun ctx ~vaddr:_ pte ->
         ignore (Ccr.Sweep.sweep_page ctx r.rm ~pte);
         pte.Vm.Pte.load_trap <- false));
  timed "core.clg_fault_ns" (fun () ->
      pte.Vm.Pte.load_trap <- true;
      ignore (M.load_cap r.ctx slot));
  M.set_clg_fault_handler r.m None;
  timed "core.revmap_paint_clear_ns" (fun () ->
      Ccr.Revmap.paint r.rm r.ctx ~addr:base ~size:256;
      Ccr.Revmap.clear r.rm r.ctx ~addr:base ~size:256);
  (* service *)
  let q = Service.Squeue.create r.m ~max_depth:64 () in
  let req =
    { Service.Squeue.id = 0; intended = 0; cls = 0; deadline = None; tenant = 0 }
  in
  timed "service.squeue_offer_take_ns" (fun () ->
      ignore (Service.Squeue.offer q r.ctx req);
      ignore (Sys.opaque_identity (Service.Squeue.take q r.ctx)));
  let slo = Service.Slo.create () in
  timed "service.slo_record_ns" (fun () ->
      incr i;
      ignore (Service.Slo.record slo ~intended:0 ~completed:(!i land 0xfffff)));
  (* fleet: the pure dispatch phase, and one host's shard *)
  let plan_s = ref [] and dispatch = ref None in
  span "fleet.plan_s" (fun () ->
      for _ = 1 to 3 do
        let t0 = now () in
        dispatch := Some (Fleet.plan fleet_cfg);
        plan_s := (now () -. t0) :: !plan_s
      done);
  add "fleet.plan_s" "s" (median !plan_s);
  let d = Option.get !dispatch in
  span "fleet.host_run_s" (fun () ->
      let hc = Cells.shard_config fleet_cfg d 0 in
      let t0 = now () in
      ignore (Fleet.Host.run hc ~arrivals:d.Fleet.d_assign.(0));
      add "fleet.host_run_s" "s" (now () -. t0));
  List.rev !out
