(** Struct-of-arrays blocks of simulator events.

    Banked replay decodes each recorded event stream into blocks and runs
    every simulator configuration over a whole block in one loop
    ({!Predictor.access_block}, {!Icache.fetch_block}): one
    configuration's tables stay cache-hot for the block, and the
    per-event work is a straight loop with no closure call and no
    predictor-kind dispatch.  Kernels consume events [0, len) in index
    order, so a simulator sees exactly the event order of the stream the
    blocks were cut from. *)

type dispatch = {
  branch : int array;  (** address of the dispatch indirect branch *)
  target : int array;  (** address it actually jumped to *)
  opcode : int array;  (** VM opcode dispatched to *)
  vm_transfer : bool array;
      (** the dispatching instruction was a VM-level control transfer *)
  mutable len : int;  (** live events, at most the arrays' length *)
}

type fetch = {
  addr : int array;  (** first byte fetched *)
  bytes : int array;  (** bytes fetched *)
  mutable len : int;  (** live events, at most the arrays' length *)
}

val dispatch : int -> dispatch
(** A block with room for the given number of events, and [len = 0]. *)

val fetch : int -> fetch
(** A block with room for the given number of events, and [len = 0]. *)

val dispatch_len : dispatch -> int
(** [len], after checking it is in range for every array of the block
    (the kernels index the arrays unchecked below it).  Raises
    [Invalid_argument] otherwise. *)

val fetch_len : fetch -> int
(** Same as {!dispatch_len}, for a fetch block. *)
