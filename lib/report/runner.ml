open Vmbp_core

type run = {
  workload : Vmbp_workloads.t;
  technique : Technique.t;
  cpu : Vmbp_machine.Cpu_model.t;
  result : Engine.result;
  output : string;
  replayed : bool;
}

exception Run_failed of string

let engine_fuel = 2_000_000_000

(* ------------------------------------------------------------------ *)
(* Decode-once plan cache.  A layout builds deterministically from
   (vm, workload, technique, scale) -- the CPU and predictor configuration
   never shape code addresses -- so the engine's translation of it does
   too.  The first run of a group captures an immutable {!Engine.plan};
   every later run of the same key instantiates a private copy by array
   blits instead of re-decoding the sites.  Entries are evicted FIFO: the
   parallel runner works group-by-group, so only the groups currently in
   flight need their plans resident. *)

let m_translations = Vmbp_obs.Registry.counter "engine.translations"
let m_plan_reuses = Vmbp_obs.Registry.counter "engine.plan_reuses"
let g_translate_wall = Vmbp_obs.Registry.gauge "engine.translate_wall_seconds"

let plan_cache : (string, Engine.plan) Hashtbl.t = Hashtbl.create 32
let plan_order : string Queue.t = Queue.create ()
let plan_lock = Mutex.create ()
let plan_cache_cap = 32

let plan_cache_key ~technique ~scale (workload : Vmbp_workloads.t) =
  Printf.sprintf "%s/%s/%s/%d"
    (Vmbp_workloads.vm_name workload.Vmbp_workloads.vm)
    workload.Vmbp_workloads.name
    (Technique.descriptor technique)
    scale

(* [cacheable] is false when the caller supplied an explicit training
   profile: the layout then depends on data outside the cache key. *)
let translation_for ~cacheable ~technique ~scale workload layout =
  let t0 = Vmbp_sim.Env.now () in
  let tr =
    if not cacheable then begin
      Vmbp_obs.Registry.add m_translations 1;
      Engine.translation layout
    end
    else begin
      let key = plan_cache_key ~technique ~scale workload in
      Mutex.lock plan_lock;
      let plan =
        match Hashtbl.find_opt plan_cache key with
        | Some p ->
            Mutex.unlock plan_lock;
            Vmbp_obs.Registry.add m_plan_reuses 1;
            p
        | None -> (
            (* Capture outside the lock?  No: capturing under the lock lets
               concurrent cells of one group share a single decode, and a
               capture is a few milliseconds at most. *)
            match Engine.plan layout with
            | p ->
                Vmbp_obs.Registry.add m_translations 1;
                Hashtbl.replace plan_cache key p;
                Queue.push key plan_order;
                if Queue.length plan_order > plan_cache_cap then
                  Hashtbl.remove plan_cache (Queue.pop plan_order);
                Mutex.unlock plan_lock;
                p
            | exception e ->
                Mutex.unlock plan_lock;
                raise e)
      in
      Engine.translation ~plan layout
    end
  in
  Vmbp_obs.Registry.gauge_add g_translate_wall (Vmbp_sim.Env.now () -. t0);
  tr

let trap_message (workload : Vmbp_workloads.t) technique msg =
  Printf.sprintf "%s/%s under %s trapped: %s"
    (Vmbp_workloads.vm_name workload.Vmbp_workloads.vm)
    workload.Vmbp_workloads.name (Technique.name technique) msg

(* The paper's training policy: static selection techniques get the
   workload's training profile unless the caller supplies one. *)
let effective_profile ?profile ~scale ~technique (workload : Vmbp_workloads.t)
    =
  match profile with
  | Some p -> Some p
  | None ->
      if Technique.uses_static_selection technique then
        Some
          (Vmbp_workloads.training_profile ~vm:workload.Vmbp_workloads.vm
             ~target:workload.Vmbp_workloads.name ~scale ())
      else None

let run ?(scale = 1) ?poll ?predictor ?profile ?(real_semantics = false) ~cpu
    ~technique (workload : Vmbp_workloads.t) =
  let cacheable = profile = None in
  let loaded, config, layout, translation =
    Vmbp_obs.Span.with_ ~name:"layout"
      ~args:[ ("workload", workload.Vmbp_workloads.name) ]
      (fun () ->
        let loaded = workload.Vmbp_workloads.load ~scale in
        let profile = effective_profile ?profile ~scale ~technique workload in
        let config = Config.make ~cpu ?predictor technique in
        let layout =
          Config.build_layout ?profile config
            ~program:loaded.Vmbp_workloads.program
        in
        let translation =
          translation_for ~cacheable ~technique ~scale workload layout
        in
        (loaded, config, layout, translation))
  in
  let session =
    if real_semantics then loaded.Vmbp_workloads.semantic_session ()
    else loaded.Vmbp_workloads.fresh_session ()
  in
  let result =
    Vmbp_obs.Span.with_ ~name:"engine"
      ~args:[ ("workload", workload.Vmbp_workloads.name) ]
      (fun () ->
        Engine.run ~fuel:engine_fuel ?poll ~translation ~config ~layout
          ~exec:session.Vmbp_workloads.exec ())
  in
  (match result.Engine.trapped with
  | Some msg -> raise (Run_failed (trap_message workload technique msg))
  | None -> ());
  {
    workload;
    technique;
    cpu;
    result;
    output = session.Vmbp_workloads.output ();
    replayed = session.Vmbp_workloads.replayed;
  }

let run_result ?scale ?poll ?predictor ?profile ?real_semantics ~cpu
    ~technique workload =
  match
    run ?scale ?poll ?predictor ?profile ?real_semantics ~cpu ~technique
      workload
  with
  | r -> Ok r
  | exception Run_failed msg -> Error msg
  | exception exn -> Error (Printexc.to_string exn)

(* ------------------------------------------------------------------ *)
(* Self-check: the same run policy, but through [Audit.dual_run], which
   drives the production simulators and the naive reference models over
   the same event stream and stops at the first disagreement. *)

let run_checked ?(scale = 1) ?poll ?predictor ?profile ?fast_maker ~cell ~cpu
    ~technique (workload : Vmbp_workloads.t) =
  let build () =
    let loaded = workload.Vmbp_workloads.load ~scale in
    let profile = effective_profile ?profile ~scale ~technique workload in
    let config = Config.make ~cpu ?predictor technique in
    let layout =
      Config.build_layout ?profile config
        ~program:loaded.Vmbp_workloads.program
    in
    let session = loaded.Vmbp_workloads.semantic_session () in
    (config, layout, session)
  in
  match
    let config, layout, session = build () in
    let fast = Option.map (fun f -> f ()) fast_maker in
    let checked =
      Vmbp_obs.Span.with_ ~name:"audit" ~args:[ ("cell", cell) ] (fun () ->
          Audit.dual_run ~fuel:engine_fuel ?poll ?fast ~cell ~config ~layout
            ~exec:session.Vmbp_workloads.exec ())
    in
    (checked, session)
  with
  | Ok result, session -> (
      (* Every event agreed, so the cell counts as audited even when the
         workload itself trapped. *)
      Audit.note_audited ();
      match result.Engine.trapped with
      | Some msg -> Error (trap_message workload technique msg)
      | None ->
          Ok
            {
              workload;
              technique;
              cpu;
              result;
              output = session.Vmbp_workloads.output ();
              replayed = false;
            })
  | Error d, _ ->
      (* Localize: replay the deterministic run, recording only the
         prefix up to the divergent event, then shrink and dump a repro
         artifact.  Divergences too deep to record replayably still fail
         the cell, just without a file. *)
      let events =
        if d.Audit.d_index < Audit.max_artifact_events then begin
          let _, layout, session = build () in
          Some
            (Audit.record_events ~fuel:engine_fuel
               ~limit:(d.Audit.d_index + 1) ~layout
               ~exec:session.Vmbp_workloads.exec ())
        end
        else None
      in
      let d = Audit.record_divergence ?fast_maker ?events d in
      Error
        (Printf.sprintf "self-check divergence at event %d: %s"
           d.Audit.d_index d.Audit.d_detail)
  | exception Run_failed msg -> Error msg
  | exception exn -> Error (Printexc.to_string exn)

(* ------------------------------------------------------------------ *)
(* Record/replay: one full engine execution per (workload, technique,
   scale), replayed for any number of CPU or predictor configurations. *)

type trace = {
  t_workload : Vmbp_workloads.t;
  t_technique : Technique.t;
  t_scale : int;
  t_data : Trace.t;
  t_replayed : bool;  (* the recording ran on a replayed control path *)
}

let record ?(scale = 1) ?poll ?profile ?cap_bytes ~technique
    (workload : Vmbp_workloads.t) =
  match
    let cacheable = profile = None in
    let loaded = workload.Vmbp_workloads.load ~scale in
    let profile = effective_profile ?profile ~scale ~technique workload in
    (* The CPU of this config is irrelevant: layout building depends on
       technique and costs only, and recording consumes neither the
       predictor nor the I-cache. *)
    let config = Config.make technique in
    let layout =
      Config.build_layout ?profile config ~program:loaded.Vmbp_workloads.program
    in
    let translation =
      translation_for ~cacheable ~technique ~scale workload layout
    in
    let session = loaded.Vmbp_workloads.fresh_session () in
    ( Trace.record ~fuel:engine_fuel ?poll ~translation ?cap_bytes ~layout
        ~exec:session.Vmbp_workloads.exec
        ~output:session.Vmbp_workloads.output (),
      session.Vmbp_workloads.replayed )
  with
  | Some data, replayed ->
      Ok
        {
          t_workload = workload;
          t_technique = technique;
          t_scale = scale;
          t_data = data;
          t_replayed = replayed;
        }
  | None, _ -> Error `Overflow
  | exception exn -> Error (`Failed (Printexc.to_string exn))

let run_of_replay tr cpu result =
  match result.Engine.trapped with
  | Some msg -> Error (trap_message tr.t_workload tr.t_technique msg)
  | None ->
      Ok
        {
          workload = tr.t_workload;
          technique = tr.t_technique;
          cpu;
          result;
          output = Trace.output tr.t_data;
          replayed = tr.t_replayed;
        }

let replay ?poll ?predictor ~cpu tr =
  let config = Config.make ~cpu ?predictor tr.t_technique in
  run_of_replay tr cpu
    (Trace.replay ?poll tr.t_data ~cpu
       ~predictor:(Config.predictor_kind config))

(* The effective predictor kinds and I-cache geometries of (cpu,
   predictor override) pairs, resolved as {!replay} resolves them. *)
let bank_configs ~configs tr =
  List.split
    (List.map
       (fun (cpu, predictor) ->
         let config = Config.make ~cpu ?predictor tr.t_technique in
         (Config.predictor_kind config, cpu.Vmbp_machine.Cpu_model.icache))
       configs)

let replay_bank ?poll ?domains ~configs tr =
  let predictors, icaches = bank_configs ~configs tr in
  Trace.replay_bank ?poll ?domains tr.t_data ~predictors ~icaches

let bank_work ~configs tr =
  let predictors, icaches = bank_configs ~configs tr in
  Trace.bank_work tr.t_data ~predictors ~icaches

let trace_bytes tr = Trace.bytes tr.t_data
let release_trace tr = Trace.release tr.t_data

let speedup ~baseline r = baseline.result.Engine.cycles /. r.result.Engine.cycles
