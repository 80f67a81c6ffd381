(* Simulated machine tests: scheduling, time accounting, synchronization,
   stop-the-world, memory operations, the load barrier, traps. *)

module M = Sim.Machine
module Cost = Sim.Cost
module Regfile = Sim.Regfile
module Prng = Sim.Prng
module Cap = Cheri.Capability
module Perms = Cheri.Perms

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cfg =
  { M.default_config with heap_bytes = 1 lsl 20; mem_bytes = 8 * (1 lsl 20) }

let mk () = M.create cfg

let heap_cap m =
  let l = M.layout m in
  Cap.restrict_perms
    (Cap.set_bounds (Cap.root ~length:(1 lsl 32)) ~base:l.Vm.Layout.heap_base
       ~length:(l.Vm.Layout.heap_limit - l.Vm.Layout.heap_base))
    Perms.all

(* ---- prng ---- *)

let test_prng_determinism () =
  let a = Prng.create ~seed:5 and b = Prng.create ~seed:5 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next a) (Prng.next b)
  done;
  let c = Prng.create ~seed:6 in
  check "different seed differs" true (Prng.next a <> Prng.next c)

let test_prng_ranges () =
  let r = Prng.create ~seed:1 in
  for _ = 1 to 1000 do
    let x = Prng.int r 10 in
    check "int in range" true (x >= 0 && x < 10);
    let f = Prng.float r 2.0 in
    check "float in range" true (f >= 0.0 && f < 2.0);
    let e = Prng.exponential r ~mean:5.0 in
    check "exp nonneg" true (e >= 0.0);
    let p = Prng.pareto r ~scale:3.0 ~shape:1.5 in
    check "pareto >= scale" true (p >= 3.0)
  done

(* The generator as it was with its state in a mutable [int64] record
   field, kept verbatim: the unboxed generator must reproduce its streams
   bit for bit. *)
module Boxed_prng = struct
  type t = { mutable state : int64 }

  let golden = 0x9E3779B97F4A7C15L

  let mix z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let create ~seed = { state = mix (Int64.of_int seed) }

  let next t =
    t.state <- Int64.add t.state golden;
    mix t.state

  let split t = { state = mix (Int64.logxor (next t) 0xA5A5A5A5DEADBEEFL) }

  let int t n =
    if n <= 0 then invalid_arg "Prng.int";
    Int64.to_int (Int64.rem (Int64.logand (next t) Int64.max_int) (Int64.of_int n))

  let float t bound =
    let u =
      Int64.to_float (Int64.shift_right_logical (next t) 11) /. 9007199254740992.0
    in
    u *. bound

  let bool t = Int64.logand (next t) 1L = 1L

  let exponential t ~mean =
    let u = float t 1.0 in
    let u = if u <= 0.0 then 1e-12 else u in
    -.mean *. log u

  let pareto t ~scale ~shape =
    let u = float t 1.0 in
    let u = if u <= 0.0 then 1e-12 else u in
    scale /. (u ** (1.0 /. shape))

  let geometric t ~p =
    if p <= 0.0 || p > 1.0 then invalid_arg "Prng.geometric";
    if p >= 1.0 then 0
    else
      let u = float t 1.0 in
      let u = if u <= 0.0 then 1e-12 else u in
      int_of_float (log u /. log (1.0 -. p))
end

type draw =
  | Next
  | Int of int
  | Float of float
  | Bool
  | Exponential of float
  | Pareto of float * float
  | Geometric of float
  | Split

let show_draw = function
  | Next -> "next"
  | Int n -> Printf.sprintf "int %d" n
  | Float b -> Printf.sprintf "float %h" b
  | Bool -> "bool"
  | Exponential m -> Printf.sprintf "exponential %h" m
  | Pareto (sc, sh) -> Printf.sprintf "pareto %h %h" sc sh
  | Geometric p -> Printf.sprintf "geometric %h" p
  | Split -> "split"

(* What a draw returned, floats as their bit patterns. *)
type outcome = W of int64 | N of int | Raised of string | Split_off

(* Run one interleaving. Each op names a generator of a pool that [Split]
   grows, so streams of split-off children interleave with their
   parents'. *)
module Play (P : sig
  type t

  val create : seed:int -> t
  val split : t -> t
  val next : t -> int64
  val int : t -> int -> int
  val float : t -> float -> float
  val bool : t -> bool
  val exponential : t -> mean:float -> float
  val pareto : t -> scale:float -> shape:float -> float
  val geometric : t -> p:float -> int
end) =
struct
  let run seed ops =
    let pool = ref [| P.create ~seed |] in
    List.map
      (fun (k, d) ->
        let g = !pool.(k mod Array.length !pool) in
        let bits f = W (Int64.bits_of_float f) in
        try
          match d with
          | Next -> W (P.next g)
          | Int n -> N (P.int g n)
          | Float b -> bits (P.float g b)
          | Bool -> N (Bool.to_int (P.bool g))
          | Exponential mean -> bits (P.exponential g ~mean)
          | Pareto (scale, shape) -> bits (P.pareto g ~scale ~shape)
          | Geometric p -> N (P.geometric g ~p)
          | Split ->
              pool := Array.append !pool [| P.split g |];
              Split_off
        with Invalid_argument e -> Raised e)
      ops
end

module Play_boxed = Play (Boxed_prng)
module Play_unboxed = Play (Prng)

let draw_gen =
  QCheck.Gen.(
    frequency
      [
        (3, return Next);
        ( 4,
          map
            (fun n -> Int n)
            (frequency [ (4, int_range 1 1000); (2, int_range 1 max_int); (1, int_range (-2) 0) ]) );
        (3, map (fun b -> Float b) (frequency [ (4, float_range 0.0 1e6); (1, float) ]));
        (3, return Bool);
        (1, map (fun m -> Exponential m) (float_range 1e-3 1e6));
        (1, map2 (fun sc sh -> Pareto (sc, sh)) (float_range 0.1 100.0) (float_range 0.1 5.0));
        ( 1,
          map
            (fun p -> Geometric p)
            (frequency [ (4, float_range 0.0 1.0); (1, oneofl [ 0.0; 1.0; 1.5; -0.1 ]) ]) );
        (1, return Split);
      ])

let prop_prng_unboxed_equals_boxed =
  QCheck.Test.make ~name:"unboxed == boxed streams" ~count:300
    (QCheck.make
       ~print:(fun (seed, ops) ->
         Printf.sprintf "seed %d: %s" seed
           (String.concat "; "
              (List.map (fun (k, d) -> Printf.sprintf "%d:%s" k (show_draw d)) ops)))
       QCheck.Gen.(pair int (list_size (int_bound 200) (pair (int_bound 7) draw_gen))))
    (fun (seed, ops) -> Play_boxed.run seed ops = Play_unboxed.run seed ops)

(* ---- basic scheduling and time ---- *)

let test_charge_advances_clock () =
  let m = mk () in
  let final = ref 0 in
  let th =
    M.spawn m ~name:"a" ~core:0 (fun ctx ->
        M.charge ctx 12345;
        final := M.now ctx)
  in
  M.run m;
  check_int "clock" 12345 !final;
  check_int "thread cpu" 12345 (M.thread_cpu_cycles th)

let test_two_cores_independent () =
  let m = mk () in
  let a_end = ref 0 and b_end = ref 0 in
  ignore (M.spawn m ~name:"a" ~core:0 (fun ctx -> M.charge ctx 100; a_end := M.now ctx));
  ignore (M.spawn m ~name:"b" ~core:1 (fun ctx -> M.charge ctx 999; b_end := M.now ctx));
  M.run m;
  check_int "a" 100 !a_end;
  check_int "b" 999 !b_end;
  check_int "global time is max" 999 (M.global_time m)

let test_same_core_context_switch () =
  let m = mk () in
  ignore (M.spawn m ~name:"a" ~core:0 (fun ctx -> M.charge ctx 100; M.yield ctx; M.charge ctx 100));
  ignore (M.spawn m ~name:"b" ~core:0 (fun ctx -> M.charge ctx 100));
  M.run m;
  let t = M.totals m in
  check "context switches happened" true (t.M.context_switches >= 1);
  (* both threads' work plus switch costs on one core *)
  check "core clock >= work" true (M.core_clock m 0 >= 300)

let test_sleep_ordering () =
  let m = mk () in
  let order = ref [] in
  ignore (M.spawn m ~name:"late" ~core:0 (fun ctx ->
      M.sleep ctx 10_000;
      order := "late" :: !order));
  ignore (M.spawn m ~name:"early" ~core:1 (fun ctx ->
      M.sleep ctx 100;
      order := "early" :: !order));
  M.run m;
  Alcotest.(check (list string)) "wake order" [ "late"; "early" ] !order

let test_condvar_wakeup_time () =
  let m = mk () in
  let woke_at = ref 0 in
  let cv = M.condvar () in
  ignore (M.spawn m ~name:"waiter" ~core:0 (fun ctx ->
      M.wait ctx cv;
      woke_at := M.now ctx));
  ignore (M.spawn m ~name:"signaler" ~core:1 (fun ctx ->
      M.charge ctx 5000;
      M.broadcast ctx cv));
  M.run m;
  check "woke no earlier than signal" true (!woke_at >= 5000)

let test_deadlock_detection () =
  let m = mk () in
  let cv = M.condvar () in
  ignore (M.spawn m ~name:"stuck" ~core:0 (fun ctx -> M.wait ctx cv));
  check "deadlock raised" true
    (try M.run m; false with M.Deadlock _ -> true)

let test_quantum_preemption_fairness () =
  let m = mk () in
  let a_done = ref 0 and b_done = ref 0 in
  (* two busy loops on one core; safe_point preempts at quantum expiry *)
  ignore (M.spawn m ~name:"a" ~core:0 (fun ctx ->
      for _ = 1 to 100 do M.charge ctx 1000; M.safe_point ctx done;
      a_done := M.now ctx));
  ignore (M.spawn m ~name:"b" ~core:0 (fun ctx ->
      for _ = 1 to 100 do M.charge ctx 1000; M.safe_point ctx done;
      b_done := M.now ctx));
  M.run m;
  (* they interleave: both finish near the end, neither runs to completion
     before the other starts *)
  let diff = abs (!a_done - !b_done) in
  check "interleaved finish" true (diff < 50_000)

(* ---- stop-the-world ---- *)

let test_stw_pause_accounting () =
  let m = mk () in
  let app_end = ref 0 in
  ignore (M.spawn m ~name:"app" ~core:3 (fun ctx ->
      for _ = 1 to 1000 do M.charge ctx 1000; M.safe_point ctx done;
      app_end := M.now ctx));
  let rep = ref None in
  ignore (M.spawn m ~name:"rev" ~core:2 ~user:false (fun ctx ->
      M.sleep ctx 200_000;
      let (), r = M.stop_the_world ctx (fun () -> M.charge ctx 500_000) in
      rep := Some r));
  M.run m;
  (match !rep with
  | None -> Alcotest.fail "no stw"
  | Some r ->
      check "stopped after requested" true (r.M.stopped_at >= r.M.requested_at);
      check "released after stop + work" true
        (r.M.released_at >= r.M.stopped_at + 500_000));
  check "app delayed by pause" true (!app_end >= 1_000_000 + 500_000)

let test_stw_idle_thread_parked_in_place () =
  let m = mk () in
  let waiter_woke = ref 0 in
  let cv = M.condvar () in
  ignore (M.spawn m ~name:"idle" ~core:3 (fun ctx ->
      M.wait ctx cv;
      waiter_woke := M.now ctx));
  ignore (M.spawn m ~name:"rev" ~core:2 ~user:false (fun ctx ->
      let (), _ = M.stop_the_world ctx (fun () -> M.charge ctx 1000) in
      (* waking a thread that was parked while waiting must still work *)
      M.broadcast ctx cv));
  M.run m;
  check "woken after release" true (!waiter_woke > 0)

let test_stw_syscall_drain_cost () =
  let m = mk () in
  let rep = ref None in
  ignore (M.spawn m ~name:"app" ~core:3 (fun ctx ->
      M.enter_syscall ctx ~drain:300_000;
      M.sleep ctx 1_000_000;
      M.exit_syscall ctx));
  ignore (M.spawn m ~name:"rev" ~core:2 ~user:false (fun ctx ->
      M.sleep ctx 10_000;
      let (), r = M.stop_the_world ctx (fun () -> ()) in
      rep := Some r));
  M.run m;
  match !rep with
  | None -> Alcotest.fail "no stw"
  | Some r ->
      check "drain delays stop" true (r.M.stopped_at - r.M.requested_at >= 300_000)

let test_stw_user_thread_cannot_initiate () =
  let m = mk () in
  let raised = ref false in
  ignore (M.spawn m ~name:"app" ~core:3 (fun ctx ->
      (try ignore (M.stop_the_world ctx (fun () -> ()))
       with Invalid_argument _ -> raised := true)));
  M.run m;
  check "rejected" true !raised

(* ---- memory operations ---- *)

let with_app f =
  let m = mk () in
  let result = ref None in
  ignore (M.spawn m ~name:"app" ~core:3 (fun ctx ->
      let l = M.layout m in
      M.map ctx ~vaddr:l.Vm.Layout.heap_base ~len:(16 * 4096) ~writable:true;
      result := Some (f m ctx (heap_cap m))));
  M.run m;
  Option.get !result

let test_load_store_roundtrip () =
  let v = with_app (fun _ ctx heap ->
      let c = Cap.set_bounds heap ~base:(Cap.base heap + 64) ~length:64 in
      M.store_u64 ctx c 0xdeadbeefL;
      M.load_u64 ctx c)
  in
  Alcotest.(check int64) "roundtrip" 0xdeadbeefL v

let test_cap_store_load_roundtrip () =
  let ok = with_app (fun _ ctx heap ->
      let slot = Cap.set_bounds heap ~base:(Cap.base heap + 128) ~length:16 in
      let v = Cap.set_bounds heap ~base:(Cap.base heap + 4096) ~length:256 in
      M.store_cap ctx slot v;
      Cap.equal v (M.load_cap ctx slot))
  in
  check "cap roundtrip" true ok

let test_cap_store_sets_dirty () =
  let dirty = with_app (fun m ctx heap ->
      let slot = Cap.set_bounds heap ~base:(Cap.base heap + 128) ~length:16 in
      let before =
        match Vm.Aspace.translate (M.aspace m) (Cap.base slot) with
        | Some (_, pte) -> pte.Vm.Pte.cap_dirty
        | None -> true
      in
      M.store_cap ctx slot (Cap.set_bounds heap ~base:(Cap.base heap) ~length:16);
      let after =
        match Vm.Aspace.translate (M.aspace m) (Cap.base slot) with
        | Some (_, pte) -> pte.Vm.Pte.cap_dirty
        | None -> false
      in
      (before, after))
  in
  check "clean before" false (fst dirty);
  check "dirty after" true (snd dirty)

let test_untagged_store_no_dirty () =
  let dirty = with_app (fun m ctx heap ->
      let slot = Cap.set_bounds heap ~base:(Cap.base heap + 128) ~length:16 in
      M.store_cap ctx slot (Cap.clear_tag heap);
      match Vm.Aspace.translate (M.aspace m) (Cap.base slot) with
      | Some (_, pte) -> pte.Vm.Pte.cap_dirty
      | None -> true)
  in
  check "untagged store leaves page clean" false dirty

let test_capability_fault_on_oob () =
  let raised = with_app (fun _ ctx heap ->
      let c = Cap.set_bounds heap ~base:(Cap.base heap + 64) ~length:16 in
      let past = Cap.incr_addr c 16 in
      try ignore (M.load_u64 ctx past); false
      with M.Capability_fault _ -> true)
  in
  check "oob load faults" true raised

let test_capability_fault_untagged () =
  let raised = with_app (fun _ ctx heap ->
      let c = Cap.clear_tag (Cap.set_bounds heap ~base:(Cap.base heap + 64) ~length:16) in
      try ignore (M.load_u64 ctx c); false
      with M.Capability_fault _ -> true)
  in
  check "untagged load faults" true raised

let test_page_fault_unmapped () =
  let m = mk () in
  let raised = ref false in
  ignore (M.spawn m ~name:"app" ~core:3 (fun ctx ->
      let l = M.layout m in
      let c =
        Cap.set_bounds (Cap.root ~length:(1 lsl 32))
          ~base:(l.Vm.Layout.heap_base + (100 * 4096)) ~length:64
      in
      try ignore (M.load_u64 ctx c) with M.Page_fault _ -> raised := true));
  M.run m;
  check "page fault" true raised.contents

let test_store_without_capstore_page () =
  let raised = with_app (fun m ctx heap ->
      let slot = Cap.set_bounds heap ~base:(Cap.base heap + 128) ~length:16 in
      (match Vm.Aspace.translate (M.aspace m) (Cap.base slot) with
      | Some (_, pte) -> pte.Vm.Pte.cap_store <- false
      | None -> ());
      try M.store_cap ctx slot heap; false with M.Capability_fault _ -> true)
  in
  check "cap store to protected page faults" true raised

let test_zero_clears () =
  let ok = with_app (fun m ctx heap ->
      let c = Cap.set_bounds heap ~base:(Cap.base heap + 4096) ~length:4096 in
      let slot = Cap.set_addr c (Cap.base c + 256) in
      M.store_cap ctx slot heap;
      M.store_u64 ctx (Cap.set_addr c (Cap.base c + 8)) 99L;
      M.zero ctx c;
      let v = M.load_u64 ctx (Cap.set_addr c (Cap.base c + 8)) in
      let t = M.load_cap ctx slot in
      ignore m;
      Int64.equal v 0L && not (Cap.tag t))
  in
  check "zeroed and untagged" true ok

(* ---- load barrier ---- *)

let test_clg_fault_fires_and_heals () =
  let m = mk () in
  let faults_seen = ref 0 in
  let loaded = ref Cap.null in
  M.set_clg_fault_handler m
    (Some
       (fun fctx ~vaddr pte ->
         ignore vaddr;
         incr faults_seen;
         M.charge fctx 100;
         pte.Vm.Pte.clg <- Vm.Pmap.generation (Vm.Aspace.pmap (M.aspace m))));
  ignore (M.spawn m ~name:"app" ~core:3 (fun ctx ->
      let l = M.layout m in
      M.map ctx ~vaddr:l.Vm.Layout.heap_base ~len:4096 ~writable:true;
      let heap = heap_cap m in
      let slot = Cap.set_bounds heap ~base:(Cap.base heap) ~length:16 in
      let v = Cap.set_bounds heap ~base:(Cap.base heap + 2048) ~length:16 in
      M.store_cap ctx slot v;
      (* no mismatch yet *)
      ignore (M.load_cap ctx slot);
      Alcotest.(check int) "no fault while generations agree" 0 !faults_seen;
      ()));
  ignore (M.spawn m ~name:"rev" ~core:2 ~user:false (fun ctx ->
      M.sleep ctx 1_000_000;
      let (), _ = M.stop_the_world ctx (fun () -> M.toggle_clg ctx) in
      ()));
  M.run m;
  (* second run: after toggle, app loads trap once then heal *)
  let m = mk () in
  M.set_clg_fault_handler m
    (Some
       (fun fctx ~vaddr pte ->
         ignore vaddr;
         incr faults_seen;
         M.charge fctx 100;
         pte.Vm.Pte.clg <- Vm.Pmap.generation (Vm.Aspace.pmap (M.aspace m))));
  let barrier = M.condvar () in
  let ready = ref false and toggled = ref false in
  ignore (M.spawn m ~name:"rev" ~core:2 ~user:false (fun ctx ->
      while not !ready do M.wait ctx barrier done;
      let (), _ = M.stop_the_world ctx (fun () -> M.toggle_clg ctx) in
      toggled := true;
      M.broadcast ctx barrier));
  ignore (M.spawn m ~name:"app" ~core:3 (fun ctx ->
      let l = M.layout m in
      (* map and populate the page BEFORE the generation toggle: the PTE
         keeps the old generation and the next tagged load must trap *)
      M.map ctx ~vaddr:l.Vm.Layout.heap_base ~len:4096 ~writable:true;
      let heap = heap_cap m in
      let slot = Cap.set_bounds heap ~base:(Cap.base heap) ~length:16 in
      let v = Cap.set_bounds heap ~base:(Cap.base heap + 2048) ~length:16 in
      M.store_cap ctx slot v;
      ready := true;
      M.broadcast ctx barrier;
      while not !toggled do M.wait ctx barrier done;
      faults_seen := 0;
      loaded := M.load_cap ctx slot;
      Alcotest.(check int) "exactly one fault" 1 !faults_seen;
      (* self-healed: second load does not fault *)
      ignore (M.load_cap ctx slot);
      Alcotest.(check int) "healed" 1 !faults_seen));
  M.run m;
  check "load returned the capability" true (Cap.tag !loaded);
  check_int "machine counted it" 1 (M.clg_fault_count m)

let test_untagged_load_never_faults () =
  let m = mk () in
  let faults = ref 0 in
  M.set_clg_fault_handler m
    (Some (fun _ ~vaddr:_ pte -> incr faults;
            pte.Vm.Pte.clg <- Vm.Pmap.generation (Vm.Aspace.pmap (M.aspace m))));
  ignore (M.spawn m ~name:"rev" ~core:2 ~user:false (fun ctx ->
      let (), _ = M.stop_the_world ctx (fun () -> M.toggle_clg ctx) in ()));
  ignore (M.spawn m ~name:"app" ~core:3 (fun ctx ->
      M.sleep ctx 100_000;
      let l = M.layout m in
      M.map ctx ~vaddr:l.Vm.Layout.heap_base ~len:4096 ~writable:true;
      let heap = heap_cap m in
      let slot = Cap.set_bounds heap ~base:(Cap.base heap) ~length:16 in
      M.store_u64 ctx slot 123L;
      ignore (M.load_cap ctx slot)));
  M.run m;
  check_int "no faults for untagged granules" 0 !faults

let test_load_filter_applies () =
  let m = mk () in
  M.set_cap_load_filter m (Some (fun _ c -> Cap.clear_tag c));
  let got = ref Cap.null in
  ignore (M.spawn m ~name:"app" ~core:3 (fun ctx ->
      let l = M.layout m in
      M.map ctx ~vaddr:l.Vm.Layout.heap_base ~len:4096 ~writable:true;
      let heap = heap_cap m in
      let slot = Cap.set_bounds heap ~base:(Cap.base heap) ~length:16 in
      M.store_cap ctx slot heap;
      got := M.load_cap ctx slot));
  M.run m;
  check "filter stripped tag" false (Cap.tag !got)

let test_tlb_shootdown_refill () =
  let m = mk () in
  ignore (M.spawn m ~name:"app" ~core:3 (fun ctx ->
      let l = M.layout m in
      M.map ctx ~vaddr:l.Vm.Layout.heap_base ~len:4096 ~writable:true;
      let heap = heap_cap m in
      let c = Cap.set_bounds heap ~base:(Cap.base heap) ~length:16 in
      ignore (M.load_u64 ctx c);
      let cost_before = M.now ctx in
      ignore (M.load_u64 ctx c);
      let hit_cost = M.now ctx - cost_before in
      M.tlb_shootdown ctx ~vpages:[ Cap.base c / 4096 ];
      let t0 = M.now ctx in
      ignore (M.load_u64 ctx c);
      let refill_cost = M.now ctx - t0 in
      check "refill pays the walk" true (refill_cost >= hit_cost + Cost.tlb_walk)));
  M.run m

(* ---- host allocation on the access path ---- *)

(* Minor-heap words allocated by [n] calls of [f] after a warm-up. *)
let minor_words ?(n = 10_000) f =
  for _ = 1 to 100 do
    f ()
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  Gc.minor_words () -. w0

(* Bytecode boxes what native code keeps in registers, so the counts
   below hold in native code only. *)
let native_only () = if Sys.backend_type <> Sys.Native then Alcotest.skip ()

let test_prng_draws_allocate_nothing () =
  native_only ();
  let r = Prng.create ~seed:11 in
  let acc = ref 0 in
  let empty = minor_words (fun () -> ()) in
  Alcotest.(check (float 0.0)) "Prng.int words" 0.0
    (minor_words (fun () -> acc := !acc + Prng.int r 1000) -. empty);
  Alcotest.(check (float 0.0)) "Prng.bool words" 0.0
    (minor_words (fun () -> if Prng.bool r then incr acc) -. empty)

(* A TLB-hot tagged granule, loaded and touched through the address-only
   accessors; the integer stores alternate with capability stores so each
   one hits a tagged granule. *)
let test_access_path_allocation () =
  native_only ();
  let per_access =
    with_app (fun _ ctx heap ->
        let va = Cap.base heap + 128 and va' = Cap.base heap + 256 in
        let v = Cap.set_bounds heap ~base:(Cap.base heap + 4096) ~length:256 in
        M.store_cap_at ctx heap va v;
        let n = 10_000 in
        let per w = w /. float_of_int n in
        [
          ("load_cap_at", per (minor_words ~n (fun () -> ignore (M.load_cap_at ctx heap va))));
          ("touch_u64_at", per (minor_words ~n (fun () -> M.touch_u64_at ctx heap va)));
          ( "store_cap_at/store_u64_at",
            per
              (minor_words ~n (fun () ->
                   M.store_cap_at ctx heap va' v;
                   M.store_u64_at ctx heap va' (-7)))
            /. 2.0 );
        ])
  in
  List.iter
    (fun (name, w) ->
      if w >= 1.0 then Alcotest.failf "%s allocates %.2f words per access" name w)
    per_access

let () =
  Alcotest.run "machine"
    [
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "ranges" `Quick test_prng_ranges;
          QCheck_alcotest.to_alcotest prop_prng_unboxed_equals_boxed;
        ] );
      ( "scheduling",
        [
          Alcotest.test_case "charge" `Quick test_charge_advances_clock;
          Alcotest.test_case "two cores" `Quick test_two_cores_independent;
          Alcotest.test_case "context switch" `Quick test_same_core_context_switch;
          Alcotest.test_case "sleep ordering" `Quick test_sleep_ordering;
          Alcotest.test_case "condvar wake time" `Quick test_condvar_wakeup_time;
          Alcotest.test_case "deadlock" `Quick test_deadlock_detection;
          Alcotest.test_case "quantum fairness" `Quick test_quantum_preemption_fairness;
        ] );
      ( "stw",
        [
          Alcotest.test_case "pause accounting" `Quick test_stw_pause_accounting;
          Alcotest.test_case "idle park" `Quick test_stw_idle_thread_parked_in_place;
          Alcotest.test_case "syscall drain" `Quick test_stw_syscall_drain_cost;
          Alcotest.test_case "user cannot initiate" `Quick test_stw_user_thread_cannot_initiate;
        ] );
      ( "memory",
        [
          Alcotest.test_case "load/store" `Quick test_load_store_roundtrip;
          Alcotest.test_case "cap roundtrip" `Quick test_cap_store_load_roundtrip;
          Alcotest.test_case "cap-dirty" `Quick test_cap_store_sets_dirty;
          Alcotest.test_case "untagged no dirty" `Quick test_untagged_store_no_dirty;
          Alcotest.test_case "oob fault" `Quick test_capability_fault_on_oob;
          Alcotest.test_case "untagged fault" `Quick test_capability_fault_untagged;
          Alcotest.test_case "page fault" `Quick test_page_fault_unmapped;
          Alcotest.test_case "cap_store page" `Quick test_store_without_capstore_page;
          Alcotest.test_case "zero" `Quick test_zero_clears;
        ] );
      ( "barrier",
        [
          Alcotest.test_case "clg fault heals" `Quick test_clg_fault_fires_and_heals;
          Alcotest.test_case "untagged never faults" `Quick test_untagged_load_never_faults;
          Alcotest.test_case "load filter" `Quick test_load_filter_applies;
          Alcotest.test_case "shootdown refill" `Quick test_tlb_shootdown_refill;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "prng draws allocate nothing" `Quick
            test_prng_draws_allocate_nothing;
          Alcotest.test_case "access path under a word" `Quick test_access_path_allocation;
        ] );
    ]
