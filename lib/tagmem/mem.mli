(** Tagged physical memory.

    Memory is an array of bytes with one validity tag per 16-byte,
    naturally-aligned {e granule} — the same density as CHERI tag storage
    (Joannou et al., "Efficient Tagged Memory"). The simulator keeps the
    full capability value for each tagged granule in a shadow slot; the
    data bytes of a tagged granule hold the capability's address so that
    integer reads of pointer values behave as on real hardware.

    The store is sparse on the host: data lives in 4 KiB frames that all
    share one read-only zero frame until their first write, and shadow
    slots are allocated in chunks on the first tagged store. Only the
    packed tag bitmap is allocated whole. None of this is visible to the
    simulation, which sees zero-initialised memory of the requested size.

    Tag coherence is enforced here: any data write that touches a granule
    clears its tag, so capabilities cannot be forged or corrupted-but-kept. *)

type t

val granule : int
(** Bytes per tag granule (16). *)

val create : size:int -> t
(** [create ~size] is zeroed memory of [size] bytes (rounded up to a
    granule multiple). *)

val size : t -> int

val resident_pages : t -> int
(** Host-side: the number of 4 KiB frames that have been given their own
    bytes by a write. A zero [fill] of a never-written frame does not
    count as a write. *)

(** {1 Data access} (physical addresses) *)

val read_u8 : t -> int -> int
val write_u8 : t -> int -> int -> unit

val read_u64 : t -> int -> int64
val write_u64 : t -> int -> int64 -> unit
(** 8-byte little-endian accesses; need not be aligned. Writes clear the
    tags of all touched granules. *)

val write_int : t -> int -> int -> unit
(** [write_int m a v] is [write_u64 m a (Int64.of_int v)] (the
    sign-extended word) without boxing it: the store the machine's
    integer access path uses. *)

val read_u64_bit : t -> int -> int -> bool
(** [read_u64_bit m a bit] is
    [Int64.logand (read_u64 m a) (Int64.shift_left 1L bit) <> 0L] for
    [0 <= bit < 64], without boxing the word. Raises [Invalid_argument]
    for [bit] outside [\[0, 64)]. *)

val update_bits : t -> int -> lo:int -> hi:int -> set:bool -> int
(** [update_bits m a ~lo ~hi ~set] sets ([set]) or clears bits
    [\[lo, hi)] of the little-endian u64 at [a] and returns how many bits
    changed. Memory, tags and frames end as after
    [write_u64 m a (f (read_u64 m a))] with [f] the masked or/and-not, but
    no word is boxed. Raises [Invalid_argument] unless
    [0 <= lo < hi <= 64]. *)

(** {1 Capability access} *)

val read_cap : t -> int -> Cheri.Capability.t
(** [read_cap m a] reads the 16-byte granule at [a] (must be granule-
    aligned). If the granule is tagged, the stored capability is returned;
    otherwise an untagged capability whose address is the granule's first
    8 data bytes. Raises [Invalid_argument] on misalignment. *)

val write_cap : t -> int -> Cheri.Capability.t -> unit
(** Store a capability: sets the granule's tag iff the capability is
    tagged, records its value, and writes its address into the data
    bytes. *)

val read_tag : t -> int -> bool
(** Tag of the granule containing the given address. *)

val clear_tag : t -> int -> unit
(** Clear the tag of the granule containing the given address, leaving
    data bytes intact — the revoker's primitive. *)

val iter_granules : t -> lo:int -> hi:int -> (int -> bool -> unit) -> unit
(** [iter_granules m ~lo ~hi f] calls [f addr tagged] for every granule
    start address in [\[lo, hi)]. The range is validated once; the inner
    loop is bounds-check-free. *)

(** {1 Word-scan kernels}

    Tags are stored packed, 64 granules per [int64] word; these kernels
    scan at word granularity and skip all-zero words, which is how both
    Joannou et al.'s tag controller and the revoker's sweep want to touch
    tag metadata. They are host-side accessors: no simulated cycles are
    charged — the caller (e.g. [Sweep.sweep_page]) owes the cost model
    whatever the equivalent per-granule traffic would have been. *)

val popcount64 : int64 -> int
(** Branch-free SWAR population count. *)

val iter_tagged_words : t -> lo:int -> hi:int -> (int -> int64 -> unit) -> unit
(** [iter_tagged_words m ~lo ~hi f] calls [f base word] for every
    64-granule tag word with at least one tag set among the whole
    granules of [\[lo, hi)]. [base] is the physical address of the
    word's first granule (64-granule aligned); bit [i] of [word] is the
    tag of granule [base + i*granule], with bits outside the requested
    range cleared. All-zero words are skipped without calling [f]. *)

val find_tagged : t -> lo:int -> hi:int -> int option
(** Address of the first tagged granule wholly inside [\[lo, hi)], or
    [None]. Word-at-a-time scan. *)

val tag_word : t -> int -> int64
(** [tag_word m a] is the packed tag word covering the 64 granules
    starting at [a], which must be 64-granule (1 KiB) aligned and in
    range. Bit [i] is the tag of granule [a + i*granule]. *)

val tag_half : t -> int -> int
(** [tag_half m a] is the low or high half of a tag word as an [int] in
    [\[0, 2{^32})]: bit [i] is the tag of granule [a + i*granule]. [a]
    must be 32-granule (512 B) aligned and in range. Unlike {!tag_word}
    it never boxes. *)

val count_tags : t -> lo:int -> hi:int -> int
(** Number of set tags in the given physical range (popcount over tag
    words). *)

val fill : t -> lo:int -> hi:int -> int -> unit
(** Fill bytes with a constant, clearing tags. *)

val copy_range : t -> src:int -> dst:int -> len:int -> unit
(** [copy_range m ~src ~dst ~len] copies data bytes, tag bits, and shadow
    capabilities — the primitive behind copy-on-write frame duplication.
    All of [src], [dst], and [len] must be granule-aligned. *)
