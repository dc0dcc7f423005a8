(** Seeded bugs for the checkers' self-tests.

    Each mutation is a deliberate defect that one gate must provably
    catch (the table pairing them lives in [Trio_check.Selftest]).  The
    hook sites read {!on}; only {!armed} turns one on, at most one at a
    time, and never outside a test or self-test run. *)

type t =
  | Journal_reorder  (** journal commit skips its persist fence *)
  | Drop_writes  (** stores stop reaching the MMU write-set *)
  | Skip_gc  (** the orphan GC reclaims nothing *)
  | Qos_bypass  (** QoS charges debit zero tokens *)
  | Skip_index  (** the LibFS stops maintaining directory indexes *)
  | Torn_commit  (** snapshot root published before its payload, into the live slot *)

val all : t list
(** Every mutation, in the order the self-test matrix runs them. *)

val name : t -> string
(** Stable command-line name, e.g. ["skip-gc"]. *)

val of_name : string -> t option

val on : t -> bool
(** Whether [t] is the armed mutation. *)

val armed : t -> (unit -> 'a) -> 'a
(** [armed t f] runs [f] with [t] on and disarms it when [f] returns or
    raises.
    @raise Invalid_argument if a mutation is already armed. *)
