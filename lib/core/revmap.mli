(** The revocation ("shadow") bitmap (§2.2.2 of the paper).

    One bit per 16-byte granule of the heap. A set bit means: capabilities
    whose {e base} points at that granule are to be revoked. The bitmap
    lives in the process's address space as a kernel-provided object; the
    user allocator paints it on [free] and the kernel sweeps read it, so
    every probe and paint is a real (cache-modelled, charged) memory
    access in the simulator.

    Revocation tests the capability {e base}, not its current address:
    CHERI guarantees bases cannot be moved, so an attacker cannot take a
    capability out of its revocable granule (footnote 9). *)

type t

val create : ?aspace:Vm.Aspace.t -> Sim.Machine.t -> t
(** [?aspace] (default: the machine's primordial space) is the address
    space host-side probes ({!test_host}) translate through — each
    process's revmap reads its own shadow mapping. *)

val seed_bits : t -> int -> unit
(** Set the painted-bit population counter — fork inheritance: a child's
    copy-on-write shadow pages start with the parent's bits set. *)

val rebind : t -> aspace:Vm.Aspace.t -> unit
(** Point host-side probes at a fresh space with an all-clear shadow
    region (exec), resetting the population counter. *)

val paint : t -> Sim.Machine.ctx -> addr:int -> size:int -> unit
(** Set the bits for [\[addr, addr+size)]. Word-at-a-time atomic
    read-modify-write through the user mapping
    ({!Sim.Machine.rmw_bits_at}), charged as {!Sim.Machine.rmw_u64} would
    be; allocation-free with no tracer attached. [addr]/[size] must be
    granule-aligned heap addresses. *)

val clear : t -> Sim.Machine.ctx -> addr:int -> size:int -> unit
(** Clear the bits (dequarantine). *)

val test : t -> Sim.Machine.ctx -> int -> bool
(** Probe the bit for a heap address (a capability base). Addresses
    outside the heap are never revocable and probe as [false] without a
    memory access. *)

val revoke_cap : t -> Sim.Machine.ctx -> Cheri.Capability.t -> Cheri.Capability.t
(** The revoker's test-and-clear on a capability {e value}: probe the
    bit for its base; untag it if set. Untagged input passes through
    unprobed. *)

val test_host : t -> int -> bool
(** Probe without charging simulated cycles or traffic: models CHERIoT's
    tightly-coupled-memory bitmap lookup folded into the load pipeline
    (§6.3), and serves tests that must not perturb measurements. *)

val set_bits : t -> int
(** Number of bits currently painted (O(1) bookkeeping, for tests and
    statistics; not a simulated access). *)
