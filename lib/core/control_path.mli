(** Recorded VM control paths.

    Techniques differ only in code layout, never in the VM instructions a
    program executes (DESIGN §5), so the sequence of {!Vmbp_vm.Control.t}
    outcomes the semantics return is a pure function of the program.  A
    path records that sequence once, from a real-semantics run, and turns
    it back into an {!Engine.exec} that reproduces it without running the
    semantics: every later engine run, trace recording or training run of
    the same program replays it.

    {b Format.}  The path is the step-delta-coded sequence of non-[Next]
    outcomes: a byte string of LEB128 varints alternating the number of
    [Next] steps since the previous outcome and the outcome's code.  Code
    [2t] is [Jump t] for an in-range target [t]; code [2i+1] is entry [i]
    of a side table holding every [Halt], [Trap] and [Quicken] record
    (and any out-of-range jump) verbatim.  The path also keeps the
    session's output at the end of the run. *)

type t

val record :
  output:(unit -> string) ->
  publish:(t -> unit) ->
  Engine.exec ->
  Engine.exec
(** [record ~output ~publish exec] wraps a fresh session's [exec]: it
    returns exactly what [exec] returns and notes every outcome.  When
    [exec] returns [Halt] or [Trap] (or a [Quicken] that ends in one), the
    run's path is complete: it is built, with [output ()] as its output,
    and handed to [publish].  A run that never gets there -- cut by fuel,
    aborted by a poll deadline or an exception, or escaping the program --
    publishes nothing.  Recording stops silently, publishing nothing, once
    the encoded path exceeds 64 MB. *)

val exec : t -> Engine.exec
(** A fresh replay cursor: an [exec] that returns the recorded outcomes in
    order, ignoring its arguments.  It does not allocate per step ([Jump]
    values are preallocated per target).  Calling it past the recorded
    final outcome raises [Invalid_argument]. *)

val output : t -> string
(** The session output at the end of the recorded run. *)

val steps : t -> int
(** Executed VM instructions of the recorded run. *)

val bytes : t -> int
(** Storage footprint: the encoded stream, the jump and side tables and
    the output. *)
