(** Case block table (Kaeli and Emma 1994, 1997).

    A history-based predictor designed for switch statements: the target
    table is indexed by the switch operand -- for a VM interpreter, the
    opcode of the next VM instruction -- rather than by the branch address.
    This gives near-perfect prediction for a switch-based interpreter
    because the opcode determines the target exactly (Section 8). *)

type t

val create : entries:int -> t
(** [entries] must be a positive power of two. *)

val descriptor : entries:int -> string
(** Canonical fingerprint ["caseblock(entries)"] of the configuration;
    distinct entry counts produce distinct strings.  Stable across runs --
    store fingerprints embed it. *)

val access : t -> opcode:int -> target:int -> bool
(** Predict the target for the dispatch on [opcode] and train the table;
    returns [true] on a correct prediction. *)

val access_block :
  t ->
  Event_block.dispatch ->
  mispredicts:int ref ->
  vm_mispredicts:int ref ->
  unit
(** {!access} over every event of the block, in order (the block's
    [branch] is unused).  Adds the mispredicted events to [mispredicts],
    and those whose [vm_transfer] is set also to [vm_mispredicts];
    nothing is allocated per event. *)

val reset : t -> unit
