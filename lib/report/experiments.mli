(** Registry of reproduction experiments, one per table and figure of the
    paper's evaluation (plus ablations called out in DESIGN.md).

    Every experiment is a value: the cells it needs plus a pure render of
    their results into a plain-text table with the same rows/series the
    paper presents.  {!report} runs any set of experiments as one plan, so
    a configuration several experiments share is computed once and a
    (program, technique) group runs one engine execution however many
    experiments read it.  Structured accessors used by the test suite live
    in the individual compute functions. *)

type 'a plan = {
  cells : Par_runner.cell list;
  finish : Par_runner.timed list -> 'a;
      (** the value of the cells' results, given in [cells] order *)
}

type t = {
  id : string;  (** e.g. "fig7" *)
  title : string;
  paper_claim : string;  (** the shape that should hold, from the paper *)
  default_scale : int;
  plan : scale:int -> string plan;
  run : scale:int -> string;  (** a one-experiment {!report} *)
}

val report : ?scale:int -> t list -> (t * string) list
(** Plan every experiment at [scale] (default: each one's
    [default_scale]), run all their cells in one {!Par_runner.run_cells}
    call, then render each experiment, in list order.  Nothing renders
    before the whole plan has run. *)

val all : t list
val find : string -> t option

(* Structured computations exposed for tests and the bench harness. *)

val speedups :
  scale:int ->
  vm:Vmbp_workloads.vm ->
  cpu:Vmbp_machine.Cpu_model.t ->
  (string * (string * float option) list) list
(** Per workload, the speedup of every paper variant over [plain]
    (Figures 7, 8 and 9).  A failed cell (or a failed baseline) yields
    [None] and the sibling cells still report. *)

val counter_profile :
  scale:int ->
  vm:Vmbp_workloads.vm ->
  workload:string ->
  cpu:Vmbp_machine.Cpu_model.t ->
  (string * float list) list * string list
(** Per variant, the seven metrics of Figures 10-13 normalised to [plain]
    (code bytes raw, in KB); and the metric labels. *)

val static_mix :
  scale:int ->
  vm:Vmbp_workloads.vm ->
  workload:string ->
  cpu:Vmbp_machine.Cpu_model.t ->
  totals:int list ->
  (int * (int * float * int) list) list
(** For each total additional-instruction budget, a series over superinstr
    percentage: [(total, [(percent, cycles, mispredicts)])]
    (Figures 14, 15 and 16). *)
