(** The report service: a crash-tolerant daemon over the
    content-addressed result store.

    One event thread owns a Unix-domain listening socket and every
    connection; one compute domain runs misses through
    {!Vmbp_report.Par_runner} (store pre-pass, grouped record/replay,
    watchdog, retries) with the process-wide store installed, so every
    freshly computed success is fsync'd to the store before its reply
    goes out -- a [kill -9] at any instant loses at most the cells in
    flight, and a restart on the same store serves everything previously
    answered, byte-identically.

    The server defends itself:

    - {b Admission control}: at most [admission] distinct cell
      configurations may be in compute flight; further misses are shed
      with an [overloaded] reply (store hits are always served).
    - {b Coalescing}: a miss identical to one already in flight joins its
      waiter list -- one compute, N replies.
    - {b Batching}: misses queued while the compute domain is busy are
      merged into one {!Vmbp_report.Par_runner.run_cells} call, so cells
      sharing a workload share one recorded execution.
    - {b Per-request deadlines}: a waiter not answered within
      [request_timeout] gets a [timeout] reply (the compute keeps going
      and still lands in the store); each compute attempt is additionally
      bounded by the [--cell-timeout] watchdog inside the runner.
    - {b Slow readers}: a connection whose outbound bytes make no
      progress for [slow_reader_timeout] is dropped.
    - {b Degradation}: when a {e cell} batch has been busy longer than
      [degraded_after] (the wedged-pool signature, injectable with
      [--chaos pool-wedge]), the service goes store-only: hits are
      served, misses get a [degraded] reply, and the time spent degraded
      accumulates in the [service.degraded_seconds] gauge.

    Chaos points ({!Vmbp_report.Faults}): [conn-drop] severs a connection
    instead of replying, [store-io] drops store appends, [slow-client]
    stalls a connection's writes (exercising the slow-reader reaper),
    [pool-wedge] stalls the compute domain (exercising degradation).

    A store whose load skipped corrupt records is repaired by a
    compaction pass at startup. *)

type config = {
  socket : string;  (** Unix-domain socket path *)
  store_dir : string;
  shards : int option;  (** store shard count; [None] = store default *)
  jobs : int;  (** compute pool width for batched misses *)
  admission : int;  (** max distinct cell configurations in compute flight *)
  request_timeout : float;  (** seconds until a waiter gets [timeout] *)
  slow_reader_timeout : float;
      (** seconds of no outbound progress before a connection is dropped *)
  degraded_after : float;
      (** seconds a cell batch may run before the service goes store-only *)
  max_request_frame : int;  (** request frames above this are rejected *)
  verbose : bool;
  quiet : bool;  (** suppress the listening/drained banner lines *)
  trace_out : string option;
      (** write request-tracing spans (Chrome trace-event JSON) here at
          drain; also enables span collection on the env clock *)
  metrics_out : string option;
      (** write the [vmbp-metrics/1] registry dump here at drain *)
  flight_dir : string;
      (** directory for [vmbp-flight-*.json] crash-flight-recorder dumps
          (degradation entry, unclean exit, SIGQUIT, the [dump] verb) *)
}

val default_config : socket:string -> store_dir:string -> config
(** jobs 1, admission 64, request timeout 30s, slow-reader timeout 5s,
    degraded after 2s, 64 KiB request frames, no trace/metrics export,
    flight dumps into ["."]. *)

val serve : config -> unit
(** Run until a [shutdown] request (or SIGINT/SIGTERM) and the drain
    completes: in-flight computes finish, their replies flush, then
    connections close and the socket is unlinked.  All effects -- clock,
    sockets, store I/O, compute-pool hand-off -- go through the
    environment captured from {!Vmbp_sim.Env.current} at this call, so
    {!Simulate} can run the whole server single-threaded on virtual
    time; under the default real environment behavior is unchanged.
    Deadlines (request timeout, slow-reader, degraded-after, stall
    windows) use the monotonic clock and are immune to wall-clock
    steps.  Raises [Unix.Unix_error] if the socket cannot be bound or
    the store cannot be opened.

    Tracing contract: a reply's [flush] span (and its per-verb latency
    sample) is recorded by the event loop just after the reply's last
    byte is written, so a client may read the reply before its flush
    span exists.  Every flush span of a written reply is guaranteed to be
    recorded once [serve] has returned (the server drained); readers of
    the span buffer -- tests, the [--trace-out] dump written at drain,
    [dev/trace_check.py] -- must read it after that, never earlier. *)
