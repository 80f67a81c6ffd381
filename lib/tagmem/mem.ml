module Capability = Cheri.Capability

let granule = 16

(* Data is stored in 4 KiB frames, one per physical page. Every frame
   starts as [zero_frame], a single all-zero buffer shared by every [t]
   (and read from every domain), and gets its own bytes on its first
   write; [zero_frame] itself is never written. Shadow capabilities are
   kept the same way, in chunks of [chunk] slots made on the first tagged
   store into them, with [no_chunk] standing for a chunk never stored to.
   A frame is 512 words and a chunk 512 slots, both above
   [Max_young_wosize] (256 words): they are born in the major heap and
   add no minor words. A run touches only a fraction of its pages, so
   memory that is never written costs one pointer per page. *)
let page_shift = 12
let page = 1 lsl page_shift
let page_mask = page - 1
let chunk_shift = 9
let chunk = 1 lsl chunk_shift
let chunk_mask = chunk - 1
let zero_frame = Bytes.make page '\000'
let no_chunk : Capability.t array = [||]

type t = {
  size : int;
  frames : Bytes.t array; (* [zero_frame] until the page is first written *)
  tags : Bytes.t; (* one bit per granule *)
  shadow : Capability.t array array;
      (* per [chunk] granules, [no_chunk] until the first tagged store;
         slot valid iff the corresponding tag is set *)
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
    frames = Array.make ((size + page - 1) lsr page_shift) zero_frame;
    tags = Bytes.make ((ngran + 63) / 64 * 8) '\000';
    shadow = Array.make ((ngran + chunk - 1) lsr chunk_shift) no_chunk;
  }

let size m = m.size

let resident_pages m =
  Array.fold_left (fun n f -> if f == zero_frame then n else n + 1) 0 m.frames

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

(* The frame holding address [a], for reading (callers have checked
   [a]). *)
let frame m a = Array.unsafe_get m.frames (a lsr page_shift)

(* The frame holding [a], for writing: a page still on the shared zero
   frame gets its own bytes first. *)
let frame_w m a =
  let p = a lsr page_shift in
  let f = Array.unsafe_get m.frames p in
  if f != zero_frame then f
  else begin
    let f = Bytes.make page '\000' in
    Array.unsafe_set m.frames p f;
    f
  end

let byte m a = Char.code (Bytes.unsafe_get (frame m a) (a land page_mask))

let set_byte m a v =
  Bytes.unsafe_set (frame_w m a) (a land page_mask) (Char.unsafe_chr (v land 0xff))

let read_u8 m a =
  check m a 1;
  byte m a

let write_u8 m a v =
  check m a 1;
  set_byte m a v;
  clear_tags_range m a 1

(* An 8-byte word lies in one frame unless it starts in a frame's last 7
   bytes; the straddling case goes byte by byte. *)
let in_frame a = a land page_mask <= page - 8

let read_u64 m a =
  check m a 8;
  if in_frame a then Bytes.get_int64_le (frame m a) (a land page_mask)
  else begin
    let v = ref 0L in
    for i = 7 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (byte m (a + i)))
    done;
    !v
  end

(* Single-bit read of the little-endian u64 at [a]: equals
   [Int64.logand (read_u64 m a) (Int64.shift_left 1L bit) <> 0L] without
   boxing the word — the revocation-map probe runs this per tagged
   granule swept. *)
let read_u64_bit m a bit =
  check m a 8;
  if bit < 0 || bit >= 64 then
    invalid_arg (Printf.sprintf "Mem.read_u64_bit: bit %d outside [0, 64)" bit);
  byte m (a + (bit lsr 3)) land (1 lsl (bit land 7)) <> 0

(* Inlined into both stores, so [write_int]'s sign-extended word is never
   boxed. *)
let[@inline] store_u64 m a v =
  check m a 8;
  if in_frame a then Bytes.set_int64_le (frame_w m a) (a land page_mask) v
  else
    for i = 0 to 7 do
      set_byte m (a + i) (Int64.to_int (Int64.shift_right_logical v (8 * i)))
    done;
  clear_tags_range m a 8

let write_u64 m a v = store_u64 m a v
let write_int m a v = store_u64 m a (Int64.of_int v)

let popcount8 b =
  let b = b - ((b lsr 1) land 0x55) in
  let b = (b land 0x33) + ((b lsr 2) land 0x33) in
  (b + (b lsr 4)) land 0x0f

(* Byte by byte, so no word is ever boxed. All eight bytes are written
   back, as [write_u64] would, so frame materialisation and tag clearing
   are those of [write_u64 m a (update (read_u64 m a))]. *)
let update_bits m a ~lo ~hi ~set =
  check m a 8;
  if lo < 0 || hi > 64 || lo >= hi then
    invalid_arg (Printf.sprintf "Mem.update_bits: bits [%d, %d)" lo hi);
  let flipped = ref 0 in
  for i = 0 to 7 do
    let old = byte m (a + i) in
    let b0 = max lo (8 * i) - (8 * i) and b1 = min hi ((8 * i) + 8) - (8 * i) in
    let nw =
      if b0 >= b1 then old
      else begin
        let mask = ((1 lsl (b1 - b0)) - 1) lsl b0 in
        if set then old lor mask else old land lnot mask
      end
    in
    flipped := !flipped + popcount8 (old lxor nw);
    set_byte m (a + i) nw
  done;
  clear_tags_range m a 8;
  !flipped

let aligned a = a land (granule - 1) = 0

(* Shadow slot of tagged granule [g]: its chunk exists, since a tag is
   only ever set together with the slot. *)
let shadow_get m g =
  Array.unsafe_get (Array.unsafe_get m.shadow (g lsr chunk_shift)) (g land chunk_mask)

(* The shadow chunk holding granule [g], made on first use. *)
let chunk_w m g =
  let k = g lsr chunk_shift in
  let c = Array.unsafe_get m.shadow k in
  if c != no_chunk then c
  else begin
    let c = Array.make chunk Capability.null in
    Array.unsafe_set m.shadow k c;
    c
  end

let read_cap m a =
  check m a granule;
  if not (aligned a) then invalid_arg "Mem.read_cap: unaligned";
  let g = gidx a in
  if unsafe_read_tag m g then shadow_get m g
  else
    let addr = Int64.to_int (Bytes.get_int64_le (frame m a) (a land page_mask)) in
    Capability.set_addr Capability.null addr

let write_cap m a c =
  check m a granule;
  if not (aligned a) then invalid_arg "Mem.write_cap: unaligned";
  let g = gidx a in
  (* a granule never straddles a frame *)
  let f = frame_w m a and o = a land page_mask in
  Bytes.set_int64_le f o (Int64.of_int (Capability.addr c));
  Bytes.set_int64_le f (o + 8) 0L;
  if Capability.tag c then begin
    Array.unsafe_set (chunk_w m g) (g land chunk_mask) c;
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

(* Two 16-bit loads, so the half word is an immediate int: the sweep
   kernel tests and shifts it without ever boxing an [int64]. *)
let tag_half m a =
  check m a 1;
  check m (a + (31 * granule)) 1;
  if a land ((32 * granule) - 1) <> 0 then
    invalid_arg "Mem.tag_half: not 32-granule aligned";
  let off = gidx a lsr 3 in
  Bytes.get_uint16_le m.tags off lor (Bytes.get_uint16_le m.tags (off + 2) lsl 16)

(* Copy [n] data bytes from [s] to [d] where neither range crosses a
   frame boundary. Zeroes onto a never-written frame stay unwritten. *)
let blit_piece m s d n =
  let fs = frame m s in
  if not (fs == zero_frame && frame m d == zero_frame) then
    Bytes.blit fs (s land page_mask) (frame_w m d) (d land page_mask) n

(* [Bytes.blit] over the frames: the range is cut into pieces that stay
   inside one source and one destination frame, taken front to back when
   [dst <= src] and back to front otherwise, so overlapping ranges copy
   as the single blit over a flat store would. *)
let blit_data m ~src ~dst ~len =
  if dst <= src then begin
    let off = ref 0 in
    while !off < len do
      let s = src + !off and d = dst + !off in
      let n = min (len - !off) (page - (max (s land page_mask) (d land page_mask))) in
      blit_piece m s d n;
      off := !off + n
    done
  end
  else begin
    let off = ref len in
    while !off > 0 do
      let s = src + !off and d = dst + !off in
      let n = min !off (1 + min ((s - 1) land page_mask) ((d - 1) land page_mask)) in
      blit_piece m (s - n) (d - n) n;
      off := !off - n
    done
  end

(* Copy [len] bytes from [src] to [dst], preserving tags and shadow
   capabilities. Both ranges must be granule-aligned, as must [len];
   copy-on-write duplicates whole frames, which satisfies this. *)
let copy_range m ~src ~dst ~len =
  check m src len;
  check m dst len;
  if not (aligned src && aligned dst && len land (granule - 1) = 0) then
    invalid_arg "Mem.copy_range: unaligned";
  blit_data m ~src ~dst ~len;
  (* both ranges were checked above: the inner loop is check-free *)
  let g0 = gidx src and gd = gidx dst in
  for i = 0 to (len / granule) - 1 do
    let t = unsafe_read_tag m (g0 + i) in
    set_tag_bit m (gd + i) t;
    (* the slot under a clear tag is never read, so only tagged granules
       need theirs copied *)
    if t then
      let g = gd + i in
      Array.unsafe_set (chunk_w m g) (g land chunk_mask) (shadow_get m (g0 + i))
  done

let fill m ~lo ~hi v =
  check m lo 0;
  check m hi 0;
  if hi > lo then begin
    let c = Char.chr (v land 0xff) in
    let a = ref lo in
    while !a < hi do
      let e = min hi ((!a lor page_mask) + 1) in
      (* zeroes over a never-written frame are already there *)
      if not (c = '\000' && frame m !a == zero_frame) then
        Bytes.fill (frame_w m !a) (!a land page_mask) (e - !a) c;
      a := e
    done;
    clear_tags_range m lo (hi - lo)
  end
