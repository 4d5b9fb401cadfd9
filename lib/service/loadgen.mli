(** Multi-domain load generator for the report service.

    Each client domain drives queries drawn zipf-style (popular
    configurations dominate, the tail is long) over the full
    workload x technique x CPU universe, so a warm store answers most
    requests while a steady trickle of misses exercises the compute
    path, coalescing and admission control.  Every client owns a
    splitmix64 stream seeded from [seed + client index]: the same
    config reproduces the same per-client query sequences.

    Latencies land in two {!Vmbp_obs.Registry} histograms --
    [loadgen.latency_seconds] (all replies) and
    [loadgen.hit_latency_seconds] (replies served from the store) --
    and per-status counts in [loadgen.status.*] counters.  {!run}
    prints a throughput / latency-quantile report from them.

    A connection severed mid-request (the server's [conn-drop] chaos
    point, or a [kill -9]) is counted under [conn-drop] and the client
    reconnects and carries on, so the generator survives the chaos it
    is pointed at. *)

type config = {
  socket : string;  (** Unix-domain socket of a running server *)
  clients : int;  (** client domains *)
  requests : int;  (** total queries, split across clients *)
  seed : int;  (** base of the per-client splitmix64 streams *)
  zipf : float;  (** skew exponent; 0 = uniform *)
  scale : int;  (** workload scale of every query *)
  json_out : string option;
      (** write a machine-readable run summary (schema vmbp-loadgen/1:
          statuses, throughput, latency quantiles) here *)
}

val techniques : unit -> Vmbp_core.Technique.t list
(** The techniques the query universe draws from, deduplicated by name. *)

val default_config : socket:string -> config
(** 4 clients, 1000 requests, seed 1, zipf 1.1, scale 1, no JSON. *)

val rid_for : config -> index:int -> n:int -> string
(** The deterministic request id client [index] attaches to its [n]th
    query ([l<seed>-c<index>-r<n>]); the server echoes it and threads
    it through its tracing spans, and a reply echoing any other rid is
    counted under the [rid-mismatch] status. *)

val json_summary : config -> elapsed:float -> universe_size:int -> string
(** The vmbp-loadgen/1 summary document from the current registry
    state; exposed for tests. *)

val query_plan :
  config -> index:int -> count:int -> (string * string * string * string) list
(** The exact [(vm, workload, technique, cpu)] sequence client [index]
    sends for this config -- the very list {!run}'s client loop
    consumes, exposed so determinism tests assert the wire behavior:
    same [seed] and [index], same plan, independent of [clients] or
    wall-clock timing. *)

val run : config -> unit
(** Drive the load, then print the report to stdout.  Raises
    [Unix.Unix_error] if the first connection attempt of a client
    fails (no server). *)
