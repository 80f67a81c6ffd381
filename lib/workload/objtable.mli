(** The application's root data structure: a table of object pointers
    living in {e simulated memory}.

    Real programs keep their heap pointers in heap data structures; the
    table models that. Every slot is one capability granule, read with
    [load_cap] (and therefore subject to Reloaded's load barrier) and
    written with [store_cap] (setting capability-dirty bits). Stale
    pointers deliberately left in dead slots are what revocation exists
    to neutralize.

    The capabilities to the table chunks themselves are program
    "globals": they refer to never-freed memory, so holding them outside
    the register file cannot violate the revoker's invariant.

    Liveness flags and sizes are {e host-side} bookkeeping (the
    simulated program's control flow), not simulated state. *)

type t

val create : Ccr.Runtime.t -> Sim.Machine.ctx -> slots:int -> t
(** Allocates the table chunks from the runtime's heap. *)

val slots : t -> int
val live_count : t -> int
val is_live : t -> int -> bool
val size_of : t -> int -> int

val get : t -> Sim.Machine.ctx -> int -> Cheri.Capability.t
(** Load the slot's capability from memory (a barriered load). *)

val put : t -> Sim.Machine.ctx -> int -> Cheri.Capability.t -> size:int -> unit
(** Store a capability into the slot and mark it live. *)

val kill : t -> int -> unit
(** Mark the slot dead in host bookkeeping; the stale capability stays
    in simulated memory (dangling). *)

val random_live : t -> Sim.Prng.t -> hot:float -> weight:float -> int option
(** Pick a live slot; with probability [weight] restrict to the first
    [hot] fraction of the table (working-set locality). *)

val random_dead : t -> Sim.Prng.t -> int option
