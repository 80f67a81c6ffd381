type kind =
  | Stw_request
  | Stw_stopped
  | Stw_release
  | Clg_fault
  | Context_switch
  | Epoch_begin
  | Epoch_end
  | Revoke_batch
  | Paint
  | Unpaint
  | Quarantine_enq
  | Quarantine_deq
  | Reuse
  | Tlb_shootdown
  | Clg_toggle
  | Hoard_scan
  | Page_sweep
  | Cow_fault
  | Proc_fork
  | Proc_exec
  | Proc_exit
  | Proc_kill
  | Sched_grant
  | Stw_abandon
  | Epoch_abort
  | Epoch_resume
  | Strategy_downshift
  | Quarantine_abandoned
  | Tag_corruption
  | Shootdown_retry
  | Chaos_inject
  | Req_shed
  | Req_lost
  | Brownout_shift
  | Governor_defer
  | Governor_force
  | Governor_quantum
  | Slo_violation
  | Quota_charge
  | Quota_deny
  | Quota_credit
  | Free_all
  | Custom of string

let kind_name = function
  | Stw_request -> "stw-request"
  | Stw_stopped -> "stw-stopped"
  | Stw_release -> "stw-release"
  | Clg_fault -> "clg-fault"
  | Context_switch -> "context-switch"
  | Epoch_begin -> "epoch-begin"
  | Epoch_end -> "epoch-end"
  | Revoke_batch -> "revoke-batch"
  | Paint -> "paint"
  | Unpaint -> "unpaint"
  | Quarantine_enq -> "quarantine-enq"
  | Quarantine_deq -> "quarantine-deq"
  | Reuse -> "reuse"
  | Tlb_shootdown -> "tlb-shootdown"
  | Clg_toggle -> "clg-toggle"
  | Hoard_scan -> "hoard-scan"
  | Page_sweep -> "page-sweep"
  | Cow_fault -> "cow-fault"
  | Proc_fork -> "proc-fork"
  | Proc_exec -> "proc-exec"
  | Proc_exit -> "proc-exit"
  | Proc_kill -> "proc-kill"
  | Sched_grant -> "sched-grant"
  | Stw_abandon -> "stw-abandon"
  | Epoch_abort -> "epoch-abort"
  | Epoch_resume -> "epoch-resume"
  | Strategy_downshift -> "strategy-downshift"
  | Quarantine_abandoned -> "quarantine-abandoned"
  | Tag_corruption -> "tag-corruption"
  | Shootdown_retry -> "shootdown-retry"
  | Chaos_inject -> "chaos-inject"
  | Req_shed -> "req-shed"
  | Req_lost -> "req-lost"
  | Brownout_shift -> "brownout-shift"
  | Governor_defer -> "governor-defer"
  | Governor_force -> "governor-force"
  | Governor_quantum -> "governor-quantum"
  | Slo_violation -> "slo-violation"
  | Quota_charge -> "quota-charge"
  | Quota_deny -> "quota-deny"
  | Quota_credit -> "quota-credit"
  | Free_all -> "free-all"
  | Custom s -> s

type event = {
  time : int;
  core : int;
  pid : int;
  kind : kind;
  arg : int;
  arg2 : int;
}

(* The ring stores events unboxed across parallel int arrays — the hot
   [emit] path writes six ints and allocates nothing. Kinds are stored
   as small integer codes; [Custom] names are interned once and coded
   past the fixed constructors. *)

let code_stw_request = 0

let fixed_kinds =
  [|
    Stw_request; Stw_stopped; Stw_release; Clg_fault; Context_switch;
    Epoch_begin; Epoch_end; Revoke_batch; Paint; Unpaint; Quarantine_enq;
    Quarantine_deq; Reuse; Tlb_shootdown; Clg_toggle; Hoard_scan; Page_sweep;
    Cow_fault; Proc_fork; Proc_exec; Proc_exit; Proc_kill; Sched_grant;
    Stw_abandon; Epoch_abort; Epoch_resume; Strategy_downshift;
    Quarantine_abandoned; Tag_corruption; Shootdown_retry; Chaos_inject;
    Req_shed; Req_lost; Brownout_shift; Governor_defer; Governor_force;
    Governor_quantum; Slo_violation; Quota_charge; Quota_deny; Quota_credit;
    Free_all;
  |]

let custom_base = Array.length fixed_kinds

let fixed_code = function
  | Stw_request -> 0
  | Stw_stopped -> 1
  | Stw_release -> 2
  | Clg_fault -> 3
  | Context_switch -> 4
  | Epoch_begin -> 5
  | Epoch_end -> 6
  | Revoke_batch -> 7
  | Paint -> 8
  | Unpaint -> 9
  | Quarantine_enq -> 10
  | Quarantine_deq -> 11
  | Reuse -> 12
  | Tlb_shootdown -> 13
  | Clg_toggle -> 14
  | Hoard_scan -> 15
  | Page_sweep -> 16
  | Cow_fault -> 17
  | Proc_fork -> 18
  | Proc_exec -> 19
  | Proc_exit -> 20
  | Proc_kill -> 21
  | Sched_grant -> 22
  | Stw_abandon -> 23
  | Epoch_abort -> 24
  | Epoch_resume -> 25
  | Strategy_downshift -> 26
  | Quarantine_abandoned -> 27
  | Tag_corruption -> 28
  | Shootdown_retry -> 29
  | Chaos_inject -> 30
  | Req_shed -> 31
  | Req_lost -> 32
  | Brownout_shift -> 33
  | Governor_defer -> 34
  | Governor_force -> 35
  | Governor_quantum -> 36
  | Slo_violation -> 37
  | Quota_charge -> 38
  | Quota_deny -> 39
  | Quota_credit -> 40
  | Free_all -> 41
  | Custom _ -> invalid_arg "Trace.fixed_code"

type t = {
  mask : int; (* capacity - 1; capacity is a power of two *)
  times : int array;
  cores : int array;
  pids : int array;
  kinds : int array;
  args : int array;
  arg2s : int array;
  mutable next : int; (* total emitted *)
  (* interning table for [Custom] kinds *)
  custom_ids : (string, int) Hashtbl.t;
  mutable custom_names : string array;
  mutable ncustom : int;
  (* subscribers, oldest-first, in a growable array *)
  mutable sub_ids : int array;
  mutable sub_fns : (event -> unit) array;
  mutable nsubs : int;
  mutable has_subs : bool;
  mutable next_sub : int;
  mutable warn_on_drop : bool;
  mutable warned : bool;
}

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (k * 2)

let create ?(capacity = 4096) () =
  if capacity <= 0 then invalid_arg "Trace.create";
  let cap = pow2_at_least capacity 1 in
  {
    mask = cap - 1;
    times = Array.make cap 0;
    cores = Array.make cap 0;
    pids = Array.make cap 0;
    kinds = Array.make cap code_stw_request;
    args = Array.make cap 0;
    arg2s = Array.make cap 0;
    next = 0;
    custom_ids = Hashtbl.create 8;
    custom_names = [||];
    ncustom = 0;
    sub_ids = [||];
    sub_fns = [||];
    nsubs = 0;
    has_subs = false;
    next_sub = 0;
    warn_on_drop = false;
    warned = false;
  }

let capacity t = t.mask + 1

let set_warn_on_drop t flag = t.warn_on_drop <- flag

let intern t name =
  match Hashtbl.find_opt t.custom_ids name with
  | Some id -> id
  | None ->
      let id = t.ncustom in
      Hashtbl.add t.custom_ids name id;
      if id >= Array.length t.custom_names then begin
        let grown = Array.make (max 8 (2 * (id + 1))) "" in
        Array.blit t.custom_names 0 grown 0 t.ncustom;
        t.custom_names <- grown
      end;
      t.custom_names.(id) <- name;
      t.ncustom <- id + 1;
      id

let kind_code t = function
  | Custom s -> custom_base + intern t s
  | k -> fixed_code k

let kind_of_code t code =
  if code < custom_base then fixed_kinds.(code)
  else Custom t.custom_names.(code - custom_base)

let event_at t j =
  {
    time = t.times.(j);
    core = t.cores.(j);
    pid = t.pids.(j);
    kind = kind_of_code t t.kinds.(j);
    arg = t.args.(j);
    arg2 = t.arg2s.(j);
  }

let emit_full t ~time ~core ~pid ~arg2 kind arg =
  let i = t.next in
  if i > t.mask && t.warn_on_drop && not t.warned then begin
    t.warned <- true;
    Printf.eprintf
      "Trace: ring capacity %d exceeded; older events are being dropped \
       (subscribers still observe the full stream)\n%!"
      (t.mask + 1)
  end;
  let j = i land t.mask in
  t.times.(j) <- time;
  t.cores.(j) <- core;
  t.pids.(j) <- pid;
  t.kinds.(j) <- kind_code t kind;
  t.args.(j) <- arg;
  t.arg2s.(j) <- arg2;
  t.next <- i + 1;
  if t.has_subs then begin
    let e = { time; core; pid; kind; arg; arg2 } in
    for k = 0 to t.nsubs - 1 do
      t.sub_fns.(k) e
    done
  end

let emit t ~time ~core ?(pid = 0) ?(arg2 = 0) kind arg =
  emit_full t ~time ~core ~pid ~arg2 kind arg

let subscribe t f =
  let id = t.next_sub in
  t.next_sub <- t.next_sub + 1;
  (* oldest-first callback order: append at the tail of the array *)
  if t.nsubs >= Array.length t.sub_ids then begin
    let cap = max 4 (2 * (t.nsubs + 1)) in
    let ids = Array.make cap 0 and fns = Array.make cap (fun (_ : event) -> ()) in
    Array.blit t.sub_ids 0 ids 0 t.nsubs;
    Array.blit t.sub_fns 0 fns 0 t.nsubs;
    t.sub_ids <- ids;
    t.sub_fns <- fns
  end;
  t.sub_ids.(t.nsubs) <- id;
  t.sub_fns.(t.nsubs) <- f;
  t.nsubs <- t.nsubs + 1;
  t.has_subs <- true;
  id

let unsubscribe t id =
  let w = ref 0 in
  for r = 0 to t.nsubs - 1 do
    if t.sub_ids.(r) <> id then begin
      t.sub_ids.(!w) <- t.sub_ids.(r);
      t.sub_fns.(!w) <- t.sub_fns.(r);
      incr w
    end
  done;
  t.nsubs <- !w;
  t.has_subs <- !w > 0

let length t = min t.next (t.mask + 1)
let total t = t.next
let dropped t = max 0 (t.next - (t.mask + 1))

let to_list t =
  let n = length t in
  let first = t.next - n in
  List.init n (fun i -> event_at t ((first + i) land t.mask))

let iter t f = List.iter f (to_list t)

let clear t =
  t.next <- 0;
  t.warned <- false

let pp_event fmt e =
  let pid = if e.pid = 0 then "" else Printf.sprintf " p%d" e.pid in
  if e.arg2 = 0 then
    Format.fprintf fmt "%12d c%d%s %-14s %#x" e.time e.core pid
      (kind_name e.kind) e.arg
  else
    Format.fprintf fmt "%12d c%d%s %-14s %#x %#x" e.time e.core pid
      (kind_name e.kind) e.arg e.arg2

let dump fmt ?last t =
  let events = to_list t in
  let events =
    match last with
    | None -> events
    | Some n ->
        let len = List.length events in
        List.filteri (fun i _ -> i >= len - n) events
  in
  if dropped t > 0 then
    Format.fprintf fmt "(%d events emitted; %d older events dropped)@." t.next
      (dropped t);
  List.iter (fun e -> Format.fprintf fmt "%a@." pp_event e) events
