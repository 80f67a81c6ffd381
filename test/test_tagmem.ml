(* Tagged memory and cache model tests. *)

module Mem = Tagmem.Mem
module Cache = Tagmem.Cache
module Cap = Cheri.Capability

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let mk () = Mem.create ~size:(1 lsl 16)

let test_data_roundtrip () =
  let m = mk () in
  Mem.write_u64 m 128 0x1122334455667788L;
  Alcotest.(check int64) "u64" 0x1122334455667788L (Mem.read_u64 m 128);
  Mem.write_u8 m 200 0xab;
  check_int "u8" 0xab (Mem.read_u8 m 200)

let test_cap_roundtrip () =
  let m = mk () in
  let c = Cap.set_bounds (Cap.root ~length:(1 lsl 16)) ~base:256 ~length:64 in
  Mem.write_cap m 512 c;
  check "tag set" true (Mem.read_tag m 512);
  check "cap equal" true (Cap.equal c (Mem.read_cap m 512));
  (* the data bytes of a tagged granule hold the address *)
  Alcotest.(check int64) "address in data" (Int64.of_int (Cap.addr c)) (Mem.read_u64 m 512)

let test_untagged_store_clears () =
  let m = mk () in
  let c = Cap.set_bounds (Cap.root ~length:(1 lsl 16)) ~base:256 ~length:64 in
  Mem.write_cap m 512 c;
  Mem.write_cap m 512 (Cap.clear_tag c);
  check "tag cleared" false (Mem.read_tag m 512)

let test_tag_coherence_data_write () =
  let m = mk () in
  let c = Cap.set_bounds (Cap.root ~length:(1 lsl 16)) ~base:256 ~length:64 in
  Mem.write_cap m 512 c;
  Mem.write_u8 m 519 0xff;
  check "byte store clears tag" false (Mem.read_tag m 512);
  let loaded = Mem.read_cap m 512 in
  check "loaded untagged" false (Cap.tag loaded);
  Mem.write_cap m 512 c;
  Mem.write_u64 m 520 0L;
  check "u64 store into granule clears tag" false (Mem.read_tag m 512);
  Mem.write_cap m 512 c;
  (* a straddling write must clear both granules *)
  Mem.write_cap m 528 c;
  Mem.write_u64 m 524 0L;
  check "straddle clears first" false (Mem.read_tag m 512);
  check "straddle clears second" false (Mem.read_tag m 528)

let test_misalignment_rejected () =
  let m = mk () in
  Alcotest.check_raises "read_cap unaligned" (Invalid_argument "Mem.read_cap: unaligned")
    (fun () -> ignore (Mem.read_cap m 8))

let test_clear_tag_keeps_data () =
  let m = mk () in
  let c = Cap.set_bounds (Cap.root ~length:(1 lsl 16)) ~base:256 ~length:64 in
  Mem.write_cap m 512 c;
  Mem.clear_tag m 512;
  check "tag gone" false (Mem.read_tag m 512);
  Alcotest.(check int64) "data intact" (Int64.of_int (Cap.addr c)) (Mem.read_u64 m 512)

let test_count_and_iter () =
  let m = mk () in
  let c = Cap.set_bounds (Cap.root ~length:(1 lsl 16)) ~base:0 ~length:16 in
  Mem.write_cap m 0 c;
  Mem.write_cap m 64 c;
  Mem.write_cap m 4096 c;
  check_int "count in range" 2 (Mem.count_tags m ~lo:0 ~hi:4096);
  check_int "count all" 3 (Mem.count_tags m ~lo:0 ~hi:(Mem.size m));
  let seen = ref 0 in
  Mem.iter_granules m ~lo:0 ~hi:128 (fun _ tagged -> if tagged then incr seen);
  check_int "iter sees both" 2 !seen

let test_fill_clears_tags () =
  let m = mk () in
  let c = Cap.set_bounds (Cap.root ~length:(1 lsl 16)) ~base:0 ~length:16 in
  Mem.write_cap m 256 c;
  Mem.fill m ~lo:0 ~hi:1024 0xcc;
  check "fill cleared tag" false (Mem.read_tag m 256);
  check_int "fill wrote" 0xcc (Mem.read_u8 m 300)

let test_bounds_checked () =
  let m = mk () in
  Alcotest.check_raises "oob write"
    (Invalid_argument
       (Printf.sprintf "Mem: access [%#x,+%d) outside [0,%#x)" (Mem.size m) 1 (Mem.size m)))
    (fun () -> Mem.write_u8 m (Mem.size m) 0)

(* ---- cache ---- *)

let test_cache_hit_miss () =
  let c = Cache.create () in
  let lat1 = Cache.access c ~addr:0 ~write:false in
  let lat2 = Cache.access c ~addr:8 ~write:false in
  check "first access misses to DRAM" true (lat1 > 100);
  check "same line hits L1" true (lat2 <= 4);
  let st = Cache.stats c in
  check_int "one bus read" 1 st.Cache.bus_reads;
  check_int "one l1 hit" 1 st.Cache.l1_hits

let test_cache_l2_path () =
  let c = Cache.create ~l1_kib:1 ~l2_kib:64 () in
  ignore (Cache.access c ~addr:0 ~write:false);
  (* evict line 0 from tiny L1 by touching its conflict set *)
  ignore (Cache.access c ~addr:1024 ~write:false);
  let lat = Cache.access c ~addr:0 ~write:false in
  check "L2 hit latency" true (lat > 4 && lat < 100);
  check_int "l2 hits" 1 (Cache.stats c).Cache.l2_hits

let test_cache_writeback () =
  let c = Cache.create ~l1_kib:1 ~l2_kib:4 () in
  ignore (Cache.access c ~addr:0 ~write:true);
  (* force eviction of the dirty line from L2 *)
  ignore (Cache.access c ~addr:4096 ~write:false);
  let st = Cache.stats c in
  check_int "dirty eviction wrote back" 1 st.Cache.bus_writes

let test_cache_flush () =
  let c = Cache.create () in
  ignore (Cache.access c ~addr:0 ~write:true);
  Cache.flush c;
  let st = Cache.stats c in
  check "flush writes back dirty" true (st.Cache.bus_writes >= 1);
  let lat = Cache.access c ~addr:0 ~write:false in
  check "post-flush miss" true (lat > 100)

let test_cache_stream_counts_bus () =
  let c = Cache.create () in
  let lat = Cache.access_stream c ~addr:0 ~write:false in
  check "stream cheaper than demand miss" true (lat < 120);
  check_int "stream still counts bus" 1 (Cache.stats c).Cache.bus_reads

let test_cache_nt_no_alloc () =
  let c = Cache.create () in
  ignore (Cache.access_nt c ~addr:0 ~write:false);
  let lat = Cache.access c ~addr:0 ~write:false in
  check "nt did not install line" true (lat > 100)

let prop_tag_density =
  QCheck.Test.make ~name:"tags never exceed one per granule" ~count:100
    QCheck.(small_list (pair (int_bound 1000) bool))
    (fun writes ->
      let m = Mem.create ~size:(1 lsl 14) in
      let c = Cap.set_bounds (Cap.root ~length:(1 lsl 14)) ~base:0 ~length:16 in
      List.iter
        (fun (slot, tagged) ->
          let a = slot * 16 mod Mem.size m in
          if tagged then Mem.write_cap m a c else Mem.write_u64 m a 1L)
        writes;
      Mem.count_tags m ~lo:0 ~hi:(Mem.size m) <= Mem.size m / 16)

(* ---- sparse store vs the flat reference ---- *)

(* The store [Mem] had before it went sparse: data bytes, tags and shadow
   capabilities each allocated whole at [create]. Kept verbatim as the
   reference model: the sparse store must agree with it on every reader
   and every bounds-check message, after any sequence of writes. *)
module Flat = struct
  module Capability = Cheri.Capability

  let granule = 16

  type t = {
    size : int;
    data : Bytes.t;
    tags : Bytes.t; (* one bit per granule *)
    shadow : Capability.t array; (* valid iff corresponding tag is set *)
  }

  (* One tag bit per granule, packed little-endian: granule [g] is bit
     [g land 7] of byte [g lsr 3], so [Bytes.get_int64_le tags (8*w)]
     yields a 64-granule word whose bit [g land 63] is granule [64*w + g].
     The array is sized to a whole number of 64-bit words so the word-scan
     kernels can always load full words. *)
  let create ~size =
    let size = (size + granule - 1) / granule * granule in
    let ngran = size / granule in
    {
      size;
      data = Bytes.make size '\000';
      tags = Bytes.make ((ngran + 63) / 64 * 8) '\000';
      shadow = Array.make ngran Capability.null;
    }

  let size m = m.size

  let check m a w =
    if a < 0 || a + w > m.size then
      invalid_arg (Printf.sprintf "Mem: access [%#x,+%d) outside [0,%#x)" a w m.size)

  let gidx a = a / granule

  (* Branch-free SWAR popcount; shared by the word-scan kernels and
     Revmap's painted-bit accounting. *)
  let popcount64 n =
    let open Int64 in
    let n = sub n (logand (shift_right_logical n 1) 0x5555555555555555L) in
    let n =
      add
        (logand n 0x3333333333333333L)
        (logand (shift_right_logical n 2) 0x3333333333333333L)
    in
    let n = logand (add n (shift_right_logical n 4)) 0x0f0f0f0f0f0f0f0fL in
    to_int (shift_right_logical (mul n 0x0101010101010101L) 56)

  (* check-free inner-loop primitive: caller has validated the range *)
  let unsafe_read_tag m g =
    Char.code (Bytes.unsafe_get m.tags (g lsr 3)) land (1 lsl (g land 7)) <> 0

  let read_tag m a =
    check m a 1;
    unsafe_read_tag m (gidx a)

  let set_tag_bit m g v =
    let byte = Char.code (Bytes.get m.tags (g lsr 3)) in
    let bit = 1 lsl (g land 7) in
    let byte' = if v then byte lor bit else byte land lnot bit in
    Bytes.set m.tags (g lsr 3) (Char.chr byte')

  let clear_tag m a =
    check m a 1;
    set_tag_bit m (gidx a) false

  (* Clear tags of every granule overlapping [a, a+w). *)
  let clear_tags_range m a w =
    let g0 = gidx a and g1 = gidx (a + w - 1) in
    for g = g0 to g1 do
      set_tag_bit m g false
    done

  let read_u8 m a =
    check m a 1;
    Char.code (Bytes.get m.data a)

  let write_u8 m a v =
    check m a 1;
    Bytes.set m.data a (Char.chr (v land 0xff));
    clear_tags_range m a 1

  let read_u64 m a =
    check m a 8;
    Bytes.get_int64_le m.data a

  (* Single-bit read of the little-endian u64 at [a]: equals
     [Int64.logand (read_u64 m a) (Int64.shift_left 1L bit) <> 0L] without
     boxing the word — the revocation-map probe runs this per tagged
     granule swept. *)
  let read_u64_bit m a bit =
    check m a 8;
    Char.code (Bytes.get m.data (a + (bit lsr 3))) land (1 lsl (bit land 7)) <> 0

  let write_u64 m a v =
    check m a 8;
    Bytes.set_int64_le m.data a v;
    clear_tags_range m a 8

  let aligned a = a land (granule - 1) = 0

  let read_cap m a =
    check m a granule;
    if not (aligned a) then invalid_arg "Mem.read_cap: unaligned";
    if unsafe_read_tag m (gidx a) then m.shadow.(gidx a)
    else
      let addr = Int64.to_int (Bytes.get_int64_le m.data a) in
      Capability.set_addr Capability.null addr

  let write_cap m a c =
    check m a granule;
    if not (aligned a) then invalid_arg "Mem.write_cap: unaligned";
    let g = gidx a in
    Bytes.set_int64_le m.data a (Int64.of_int (Capability.addr c));
    Bytes.set_int64_le m.data (a + 8) 0L;
    if Capability.tag c then begin
      m.shadow.(g) <- c;
      set_tag_bit m g true
    end
    else set_tag_bit m g false

  (* First/last whole granule of [lo, hi) clamped to the memory, as an
     inclusive granule-index range (empty iff g0 > g1). Hoisting this one
     range computation replaces the per-granule bounds [check] the checked
     entry points pay. *)
  let granule_span m ~lo ~hi =
    let lo = max 0 lo and hi = min m.size hi in
    let g0 = (lo + granule - 1) / granule in
    let g1 = (hi / granule) - 1 in
    (g0, g1)

  let iter_granules m ~lo ~hi f =
    let g0, g1 = granule_span m ~lo ~hi in
    for g = g0 to g1 do
      f (g * granule) (unsafe_read_tag m g)
    done

  let word_of_tags m w = Bytes.get_int64_le m.tags (w lsl 3)

  (* Mask selecting bits [b0, b1] (inclusive) of a 64-bit word. *)
  let bit_mask b0 b1 =
    let width = b1 - b0 + 1 in
    if width >= 64 then -1L
    else Int64.shift_left (Int64.sub (Int64.shift_left 1L width) 1L) b0

  let iter_tagged_words m ~lo ~hi f =
    let g0, g1 = granule_span m ~lo ~hi in
    if g0 <= g1 then begin
      let w0 = g0 lsr 6 and w1 = g1 lsr 6 in
      for w = w0 to w1 do
        let word = word_of_tags m w in
        if not (Int64.equal word 0L) then begin
          (* clip the edge words to the requested range *)
          let b0 = if w = w0 then g0 land 63 else 0 in
          let b1 = if w = w1 then g1 land 63 else 63 in
          let word = Int64.logand word (bit_mask b0 b1) in
          if not (Int64.equal word 0L) then f ((w lsl 6) * granule) word
        end
      done
    end

  let count_tags m ~lo ~hi =
    let n = ref 0 in
    iter_tagged_words m ~lo ~hi (fun _ word -> n := !n + popcount64 word);
    !n

  let find_tagged m ~lo ~hi =
    let found = ref None in
    (try
       iter_tagged_words m ~lo ~hi (fun base word ->
           (* lowest set bit = first tagged granule in this word *)
           let bit = popcount64 (Int64.sub (Int64.logand word (Int64.neg word)) 1L) in
           found := Some (base + (bit * granule));
           raise Exit)
     with Exit -> ());
    !found

  let tag_word m a =
    check m a 1;
    check m (a + (63 * granule)) 1;
    if a land ((64 * granule) - 1) <> 0 then
      invalid_arg "Mem.tag_word: not 64-granule aligned";
    word_of_tags m (gidx a lsr 6)

  (* Copy [len] bytes from [src] to [dst], preserving tags and shadow
     capabilities. Both ranges must be granule-aligned, as must [len];
     copy-on-write duplicates whole frames, which satisfies this. *)
  let copy_range m ~src ~dst ~len =
    check m src len;
    check m dst len;
    if not (aligned src && aligned dst && len land (granule - 1) = 0) then
      invalid_arg "Mem.copy_range: unaligned";
    Bytes.blit m.data src m.data dst len;
    (* both ranges were checked above: the inner loop is check-free *)
    let g0 = gidx src and gd = gidx dst in
    for i = 0 to (len / granule) - 1 do
      let t = unsafe_read_tag m (g0 + i) in
      set_tag_bit m (gd + i) t;
      m.shadow.(gd + i) <- (if t then m.shadow.(g0 + i) else Capability.null)
    done

  let fill m ~lo ~hi v =
    check m lo 0;
    check m hi 0;
    if hi > lo then begin
      Bytes.fill m.data lo (hi - lo) (Char.chr (v land 0xff));
      clear_tags_range m lo (hi - lo)
    end
end

module type STORE = sig
  type t

  val create : size:int -> t
  val size : t -> int
  val read_u8 : t -> int -> int
  val write_u8 : t -> int -> int -> unit
  val read_u64 : t -> int -> int64
  val write_u64 : t -> int -> int64 -> unit
  val write_int : t -> int -> int -> unit
  val read_u64_bit : t -> int -> int -> bool
  val read_cap : t -> int -> Cap.t
  val write_cap : t -> int -> Cap.t -> unit
  val read_tag : t -> int -> bool
  val clear_tag : t -> int -> unit
  val iter_granules : t -> lo:int -> hi:int -> (int -> bool -> unit) -> unit
  val find_tagged : t -> lo:int -> hi:int -> int option
  val tag_word : t -> int -> int64
  val count_tags : t -> lo:int -> hi:int -> int
  val fill : t -> lo:int -> hi:int -> int -> unit
  val copy_range : t -> src:int -> dst:int -> len:int -> unit
end

(* four whole 4 KiB frames and a partial fifth *)
let eq_size = (4 * 4096) + 1024

type op =
  | W8 of int * int
  | W64 of int * int64
  | Wint of int * int
  | Wcap of int * bool * int (* address, tagged, seed of the value *)
  | Clear of int
  | Fill of int * int * int
  | Copy of int * int * int
  | R8 of int
  | R64 of int
  | Rbit of int * int
  | Rcap of int

let show_op = function
  | W8 (a, v) -> Printf.sprintf "W8(%d,%d)" a v
  | W64 (a, v) -> Printf.sprintf "W64(%d,%Ld)" a v
  | Wint (a, v) -> Printf.sprintf "Wint(%d,%d)" a v
  | Wcap (a, t, s) -> Printf.sprintf "Wcap(%d,%b,%d)" a t s
  | Clear a -> Printf.sprintf "Clear %d" a
  | Fill (lo, hi, v) -> Printf.sprintf "Fill(%d,%d,%d)" lo hi v
  | Copy (s, d, n) -> Printf.sprintf "Copy(%d,%d,%d)" s d n
  | R8 a -> Printf.sprintf "R8 %d" a
  | R64 a -> Printf.sprintf "R64 %d" a
  | Rbit (a, b) -> Printf.sprintf "Rbit(%d,%d)" a b
  | Rcap a -> Printf.sprintf "Rcap %d" a

(* A capability inside the memory, tagged or not, picked by [seed]. *)
let cap_of ~tagged seed =
  let seed = abs seed in
  let base = seed mod ((eq_size / 16) - 32) * 16 in
  let c = Cap.set_bounds (Cap.root ~length:eq_size) ~base ~length:256 in
  let c = Cap.set_addr c (base + (seed mod 256)) in
  if tagged then c else Cap.clear_tag c

type obs = V of int | V64 of int64 | B of bool | C of Cap.t | O of int option | E of string

let obs_equal a b =
  match (a, b) with C x, C y -> Cap.equal x y | C _, _ | _, C _ -> false | _ -> a = b

let show_obs = function
  | V n -> string_of_int n
  | V64 n -> Int64.to_string n
  | B b -> string_of_bool b
  | C c -> Format.asprintf "%a" Cap.pp c
  | O None -> "None"
  | O (Some n) -> Printf.sprintf "Some %d" n
  | E e -> "Invalid_argument " ^ e

module Drive (S : STORE) = struct
  let create () = S.create ~size:eq_size
  let guard f = try f () with Invalid_argument e -> E e

  let step m = function
    | W8 (a, v) -> guard (fun () -> S.write_u8 m a v; V 0)
    | W64 (a, v) -> guard (fun () -> S.write_u64 m a v; V 0)
    | Wint (a, v) -> guard (fun () -> S.write_int m a v; V 0)
    | Wcap (a, tagged, s) -> guard (fun () -> S.write_cap m a (cap_of ~tagged s); V 0)
    | Clear a -> guard (fun () -> S.clear_tag m a; V 0)
    | Fill (lo, hi, v) -> guard (fun () -> S.fill m ~lo ~hi v; V 0)
    | Copy (src, dst, len) -> guard (fun () -> S.copy_range m ~src ~dst ~len; V 0)
    | R8 a -> guard (fun () -> V (S.read_u8 m a))
    | R64 a -> guard (fun () -> V64 (S.read_u64 m a))
    | Rbit (a, b) -> guard (fun () -> B (S.read_u64_bit m a b))
    | Rcap a -> guard (fun () -> C (S.read_cap m a))

  (* Every reader at every address it accepts, plus the error each gives
     just outside. *)
  let observe m =
    let n = S.size m in
    let out = ref [] in
    let add o = out := o :: !out in
    for a = -1 to n do
      add (guard (fun () -> V (S.read_u8 m a)))
    done;
    for a = -1 to n - 7 do
      add (guard (fun () -> V64 (S.read_u64 m a)));
      add (guard (fun () -> B (S.read_u64_bit m a (((a * 13) + 5) land 63))))
    done;
    for g = 0 to n / 16 do
      add (guard (fun () -> B (S.read_tag m ((g * 16) + (g land 15)))));
      add (guard (fun () -> C (S.read_cap m (g * 16))))
    done;
    List.iter (fun a -> add (guard (fun () -> C (S.read_cap m a)))) [ 8; -16 ];
    for k = 0 to (n / 1024) do
      add (guard (fun () -> V64 (S.tag_word m (k * 1024))))
    done;
    add (guard (fun () -> V64 (S.tag_word m 512)));
    List.iter
      (fun (lo, hi) ->
        add (V (S.count_tags m ~lo ~hi));
        S.iter_granules m ~lo ~hi (fun a tagged -> if tagged then add (V a));
        add (O (S.find_tagged m ~lo ~hi)))
      [ (0, n); (-64, n + 64); (8, 4096); (4095, 8193); (4096, 12288); (13000, n); (100, 50) ];
    List.rev !out
end

(* The flat store predates [write_int]; its meaning is the sign-extended
   [write_u64]. *)
module DFlat = Drive (struct
  include Flat

  let write_int m a v = write_u64 m a (Int64.of_int v)
end)
module DMem = Drive (Mem)

(* Addresses cluster at frame boundaries, where the sparse store splits
   words and copies; a few fall outside the memory. *)
let addr_gen =
  QCheck.Gen.(
    frequency
      [
        (2, int_range (-8) (eq_size + 8));
        (3, map2 (fun p d -> (p * 4096) + d) (int_bound 5) (int_range (-12) 12));
      ])

let gaddr_gen =
  QCheck.Gen.(
    frequency
      [ (6, map (fun a -> a land lnot 15) addr_gen); (1, addr_gen) ])

let op_gen =
  QCheck.Gen.(
    let byte_val = frequency [ (3, return 0); (2, int_bound 255); (1, int) ] in
    let len =
      frequency
        [ (3, int_bound 64); (2, int_bound 9000); (1, map (fun k -> k * 4096) (int_bound 3)) ]
    in
    frequency
      [
        (3, map2 (fun a v -> W8 (a, v)) addr_gen byte_val);
        (3, map2 (fun a v -> W64 (a, v)) addr_gen int64);
        ( 2,
          map2
            (fun a v -> Wint (a, v))
            addr_gen
            (frequency [ (3, int); (1, oneofl [ min_int; max_int; -1; 0 ]) ]) );
        (4, map3 (fun a t s -> Wcap (a, t, s)) gaddr_gen bool int);
        (2, map (fun a -> Clear a) addr_gen);
        (2, map3 (fun lo n v -> Fill (lo, lo + n, v)) addr_gen len byte_val);
        ( 1,
          map3
            (fun p k v -> Fill (p * 4096, (p + k) * 4096, v))
            (int_bound 4) (int_bound 2) byte_val );
        ( 3,
          map3
            (fun s d k -> Copy (s, d, k))
            gaddr_gen gaddr_gen
            (frequency [ (5, map (fun k -> k * 16) (int_bound 600)); (1, int_bound 600) ]) );
        (2, map (fun a -> R8 a) addr_gen);
        (2, map (fun a -> R64 a) addr_gen);
        (1, map2 (fun a b -> Rbit (a, b)) addr_gen (int_bound 63));
        (1, map (fun a -> Rcap a) gaddr_gen);
      ])

let ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    QCheck.Gen.(list_size (int_bound 40) op_gen)

let first_mismatch xs ys =
  let rec go i = function
    | x :: xs, y :: ys -> if obs_equal x y then go (i + 1) (xs, ys) else Some (i, x, y)
    | [], [] -> None
    | _ -> Some (i, E "length", E "length")
  in
  go 0 (xs, ys)

let prop_sparse_equals_flat =
  QCheck.Test.make ~name:"sparse store == flat reference" ~count:100 ops_arb (fun ops ->
      let f = DFlat.create () and m = DMem.create () in
      let steps_f = List.map (DFlat.step f) ops and steps_m = List.map (DMem.step m) ops in
      (match first_mismatch steps_f steps_m with
      | Some (i, x, y) ->
          QCheck.Test.fail_reportf "op %d (%s): flat %s, sparse %s" i
            (show_op (List.nth ops i)) (show_obs x) (show_obs y)
      | None -> ());
      match first_mismatch (DFlat.observe f) (DMem.observe m) with
      | Some (i, x, y) ->
          QCheck.Test.fail_reportf "observation %d: flat %s, sparse %s" i (show_obs x) (show_obs y)
      | None -> true)

(* Fresh memories share the never-written zero frame: no write to one
   memory may show through another, in this domain or any other. *)
let test_independent_memories () =
  let scribble seed =
    let m = Mem.create ~size:eq_size in
    for i = 0 to (eq_size / 16) - 1 do
      let a = i * 16 in
      if (i + seed) mod 3 = 0 then Mem.write_cap m a (cap_of ~tagged:true (i + seed))
      else Mem.write_u64 m (a + 4) (Int64.of_int (i + seed + 1))
    done;
    Mem.fill m ~lo:4096 ~hi:8192 (0xa5 + seed);
    Mem.copy_range m ~src:0 ~dst:12288 ~len:4096;
    let fresh = Mem.create ~size:eq_size in
    let zero = ref true in
    for a = 0 to eq_size - 1 do
      if Mem.read_u8 fresh a <> 0 then zero := false
    done;
    !zero
    && Mem.count_tags fresh ~lo:0 ~hi:eq_size = 0
    && Mem.resident_pages fresh = 0
    && Mem.resident_pages m = 5
  in
  check "one domain" true (scribble 0);
  List.iteri
    (fun i ok -> check (Printf.sprintf "domain task %d" i) true ok)
    (Parallel.Pool.map ~jobs:3 scribble [ 1; 2; 3; 4; 5; 6 ]);
  check "after the domains" true (scribble 7)

let test_zero_fill_stays_sparse () =
  let m = Mem.create ~size:eq_size in
  check_int "fresh" 0 (Mem.resident_pages m);
  Mem.fill m ~lo:0 ~hi:eq_size 0;
  check_int "zero fill of unwritten frames" 0 (Mem.resident_pages m);
  Mem.copy_range m ~src:0 ~dst:8192 ~len:4096;
  check_int "copy between unwritten frames" 0 (Mem.resident_pages m);
  Mem.write_u8 m 5000 1;
  check_int "first write" 1 (Mem.resident_pages m);
  Mem.fill m ~lo:0 ~hi:eq_size 0;
  check_int "zero fill over a written frame" 1 (Mem.resident_pages m);
  check_int "written frame zeroed" 0 (Mem.read_u8 m 5000);
  Mem.fill m ~lo:8192 ~hi:8200 7;
  check_int "non-zero fill" 2 (Mem.resident_pages m)

let test_read_u64_bit_range () =
  let m = mk () in
  Mem.write_u64 m 64 Int64.min_int;
  check "bit 63" true (Mem.read_u64_bit m 64 63);
  check "bit 0" false (Mem.read_u64_bit m 64 0);
  List.iter
    (fun bit ->
      Alcotest.check_raises (Printf.sprintf "bit %d" bit)
        (Invalid_argument (Printf.sprintf "Mem.read_u64_bit: bit %d outside [0, 64)" bit))
        (fun () -> ignore (Mem.read_u64_bit m 64 bit)))
    [ 64; -1; 71 ]

let () =
  Alcotest.run "tagmem"
    [
      ( "mem",
        [
          Alcotest.test_case "data roundtrip" `Quick test_data_roundtrip;
          Alcotest.test_case "cap roundtrip" `Quick test_cap_roundtrip;
          Alcotest.test_case "untagged store" `Quick test_untagged_store_clears;
          Alcotest.test_case "tag coherence" `Quick test_tag_coherence_data_write;
          Alcotest.test_case "misalignment" `Quick test_misalignment_rejected;
          Alcotest.test_case "clear_tag keeps data" `Quick test_clear_tag_keeps_data;
          Alcotest.test_case "count and iter" `Quick test_count_and_iter;
          Alcotest.test_case "fill clears tags" `Quick test_fill_clears_tags;
          Alcotest.test_case "bounds checked" `Quick test_bounds_checked;
          Alcotest.test_case "read_u64_bit range" `Quick test_read_u64_bit_range;
          Alcotest.test_case "independent memories" `Quick test_independent_memories;
          Alcotest.test_case "zero fill stays sparse" `Quick test_zero_fill_stays_sparse;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit/miss" `Quick test_cache_hit_miss;
          Alcotest.test_case "l2 path" `Quick test_cache_l2_path;
          Alcotest.test_case "writeback" `Quick test_cache_writeback;
          Alcotest.test_case "flush" `Quick test_cache_flush;
          Alcotest.test_case "stream bus" `Quick test_cache_stream_counts_bus;
          Alcotest.test_case "nt no alloc" `Quick test_cache_nt_no_alloc;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_tag_density; prop_sparse_equals_flat ] );
    ]
