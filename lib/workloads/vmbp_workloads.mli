(** Unified registry of the benchmark programs of both VMs, with the
    training-profile policies the paper uses for static selection
    (Section 7.1): Gforth trains on a dynamic profile of [brainless]; the
    JVM selects per benchmark from static profiles of the other six
    programs, taken after quickening. *)

type vm = Forth | Jvm

val vm_name : vm -> string

type session = {
  exec : Vmbp_core.Engine.exec;
      (** semantics bound to a fresh state, or a recorded path's replay *)
  output : unit -> string;  (** captured program output *)
  replayed : bool;  (** [exec] replays a recorded path *)
}

type loaded = {
  program : Vmbp_vm.Program.t;
      (** pristine, unquickened program; layout builders copy it *)
  fresh_session : unit -> session;
      (** A session for one run from the program's entry.  Once a run of
          this program has reached [Halt] or [Trap] in this process, the
          session replays that run's recorded control path
          ({!Vmbp_core.Control_path}) instead of executing the semantics
          (counted in the [engine.path_replays] registry counter).  Until
          then it runs the real semantics (counted in
          [engine.semantic_runs]) and records the path, publishing it
          add-if-absent when the run reaches [Halt] or [Trap]; fuel cuts,
          poll aborts and exceptions publish nothing.  Published paths'
          footprint accumulates in [engine.path_bytes]. *)
  semantic_session : unit -> session;
      (** Always the real semantics, never recorded or counted: the
          session oracles ([--self-check], audits, [explain]'s
          verification) must use, so they stay independent of the
          paths. *)
}

type t = {
  vm : vm;
  name : string;
  description : string;
  load : scale:int -> loaded;
}

val all : t list
val forth : t list
(** In the paper's Table VI order. *)

val jvm : t list
(** In the paper's Figure 9 order. *)

val find : vm:vm -> string -> t option

val recorded_path : t -> scale:int -> Vmbp_core.Control_path.t option
(** The program's published control path, if a run has recorded one. *)

val forget_paths : unit -> unit
(** Drop every published path (tests use this to start from real
    semantics again). *)

val run_reference :
  ?fuel:int -> loaded -> int * string option * string
(** Functional run on a copy: (steps, trap, output).  Like every run
    through [fresh_session], it replays the program's path once one
    exists. *)

val quickened_program : ?fuel:int -> loaded -> Vmbp_vm.Program.t
(** A copy of the program after running it to completion functionally, so
    all reachable quickable instructions are in their quick form. *)

val training_profile :
  ?max_seq_len:int -> vm:vm -> target:string -> scale:int -> unit ->
  Vmbp_vm.Profile.t
(** The profile used to select static replicas/superinstructions when
    optimizing [target]: for Forth, a dynamic profile from a training run
    of [brainless] (halved scale); for the JVM, static profiles of every
    quickened benchmark except [target]. *)
