module Capability = Cheri.Capability
module Machine = Sim.Machine
module Cost = Sim.Cost
module Phys = Vm.Phys
module Pte = Vm.Pte

type stats = { granules : int; tagged : int; revoked : int; upgraded : bool }

let granule = Tagmem.Mem.granule

(* The revoker's hot loop. Two implementations with an exact-equivalence
   contract (enforced by test/test_sweepkernel.ml): every cycle charged,
   bus transaction, cache-state transition and trace event must be
   identical between them.

   The word-scan fast path reads the page's packed tag bitmap 32
   granules per load, as an immediate int ([Tagmem.Mem.tag_half]), and
   batches the cost model over untagged cache lines
   ([Machine.kern_read_untagged_run]); only tagged granules materialise
   a capability and probe the revocation map. Probing can yield at a
   safe point (the application may then write this very page), so the
   cached tag bits are refreshed after every probe — the per-granule
   loop re-reads the tag at each visit, and bit-exact equivalence
   includes those racy windows. Nothing in the loop allocates: the
   counters are local, the tag bits are never an [int64], and the only
   per-page allocation is the returned [stats].

   The per-granule loop remains the reference, and stays in use whenever
   a chaos tag-read hook is armed: the hook must be consulted on every
   granule read, which the batched path deliberately skips. *)

(* Probe one tagged granule; clear its tag if its capability's base is
   painted. Returns 0 (kept), 1 (revoked) or 2 (revoked, and the
   read-only page's write upgrade charged — only when not [upgraded]
   yet). The page's writability is read after the probe, which can
   yield. *)
let probe_tagged ctx revmap ~pte ~pa c ~upgraded =
  if Revmap.test revmap ctx (Capability.base c) then begin
    let upgrade = (not pte.Pte.writable) && not upgraded in
    if upgrade then
      (* read-only page that turns out to need revocation: invoke the
         full fault machinery to upgrade it to writable (§4.3) *)
      Machine.charge ctx (Cost.trap + Cost.pmap_lock + Cost.pte_update);
    Machine.kern_clear_tag ctx ~pa;
    if upgrade then 2 else 1
  end
  else 0

let reader ~non_temporal =
  if non_temporal then Machine.kern_read_cap_nt else Machine.kern_read_cap_stream

let sweep_page_granular ~non_temporal ctx revmap ~pte ~base ~n =
  let read = reader ~non_temporal in
  let tagged = ref 0 and revoked = ref 0 and upgraded = ref false in
  for i = 0 to n - 1 do
    let pa = base + (i * granule) in
    let c = read ctx ~pa in
    if Capability.tag c then begin
      incr tagged;
      let r = probe_tagged ctx revmap ~pte ~pa c ~upgraded:!upgraded in
      if r > 0 then incr revoked;
      if r = 2 then upgraded := true
    end
  done;
  { granules = n; tagged = !tagged; revoked = !revoked; upgraded = !upgraded }

let half_granules = 32

let sweep_page_wordscan ~non_temporal ctx revmap ~pte ~base ~n =
  let mem = Machine.mem (Machine.machine ctx) in
  let read = reader ~non_temporal in
  let gpl = Tagmem.Cache.line_size / granule in
  let line_mask = (1 lsl gpl) - 1 in
  let tagged = ref 0 and revoked = ref 0 and upgraded = ref false in
  for h = 0 to (n / half_granules) - 1 do
    let half_pa = base + (h * half_granules * granule) in
    (* refreshed after every probe: Revmap.test can yield, and a resumed
       application thread may have re-written granules we haven't
       visited yet *)
    let bits = ref (Tagmem.Mem.tag_half mem half_pa) in
    for l = 0 to (half_granules / gpl) - 1 do
      let line_pa = half_pa + (l * gpl * granule) in
      if (!bits lsr (l * gpl)) land line_mask = 0 then
        (* all-untagged line: one batched charge for the whole line *)
        Machine.kern_read_untagged_run ~non_temporal ctx ~pa:line_pa ~count:gpl
      else
        for g = 0 to gpl - 1 do
          let pa = line_pa + (g * granule) in
          if !bits land (1 lsl ((l * gpl) + g)) = 0 then
            Machine.kern_read_untagged_run ~non_temporal ctx ~pa ~count:1
          else begin
            let c = read ctx ~pa in
            incr tagged;
            let r = probe_tagged ctx revmap ~pte ~pa c ~upgraded:!upgraded in
            if r > 0 then incr revoked;
            if r = 2 then upgraded := true;
            bits := Tagmem.Mem.tag_half mem half_pa
          end
        done
    done
  done;
  { granules = n; tagged = !tagged; revoked = !revoked; upgraded = !upgraded }

let sweep_page ?(non_temporal = false) ctx revmap ~pte =
  let base = Phys.frame_addr pte.Pte.frame in
  let n = Phys.page_size / granule in
  let st =
    if Machine.tag_hook_armed (Machine.machine ctx) then
      sweep_page_granular ~non_temporal ctx revmap ~pte ~base ~n
    else sweep_page_wordscan ~non_temporal ctx revmap ~pte ~base ~n
  in
  Machine.trace_emit (Machine.machine ctx) ~time:(Machine.now ctx)
    ~core:(Machine.core_id ctx) ~pid:(Machine.ctx_pid ctx) ~arg2:st.revoked
    Sim.Trace.Page_sweep base;
  st

let scan_regfile ctx revmap regs =
  let revoked = ref 0 in
  ignore
    (Sim.Regfile.map_tagged regs (fun c ->
         Machine.charge ctx Cost.alu;
         let c' = Revmap.revoke_cap revmap ctx c in
         if not (Capability.tag c') then incr revoked;
         c'));
  !revoked

let scan_hoard ctx revmap hoard =
  let revoked = ref 0 in
  let n =
    Kernel.Hoard.scan hoard ~f:(fun c ->
        let c' = Revmap.revoke_cap revmap ctx c in
        if Capability.tag c && not (Capability.tag c') then incr revoked;
        c')
  in
  Machine.charge ctx (n * Cost.alu);
  Machine.trace_emit (Machine.machine ctx) ~time:(Machine.now ctx)
    ~core:(Machine.core_id ctx) ~pid:(Machine.ctx_pid ctx) ~arg2:!revoked
    Sim.Trace.Hoard_scan n;
  !revoked
