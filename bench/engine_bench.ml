(* Engine hot-loop microbenchmark: steps/sec of each interpreter layer.

   Layers, innermost out:
     functional        VM semantics alone (no layout, no events)
     legacy            pre-translation per-step loop, no-op sink
     translated        decode-once translated loop, no-op sink
     record            translated loop driving the trace-recording sink
     replayed          translated loop, no-op sink, driven by the program's
                       recorded control path instead of the VM semantics

   Every layer but [replayed] runs the real semantics.

   Each layer runs the same workloads/techniques on pre-built layouts, so
   the numbers isolate interpreter overhead from load/profile/build cost.
   CI runs this as a perf smoke: the translated loop must not be slower
   than the legacy loop it replaced (--check, with slack for noise), the
   replayed loop must not be slower than the translated loop with real
   semantics, and every layer must execute the same number of steps. *)

let workload_name = ref "brainless"
let scale = ref 2
let check = ref false

let () =
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        workload_name := w;
        parse rest
    | "--scale" :: s :: rest ->
        scale := int_of_string s;
        parse rest
    | "--check" :: rest ->
        check := true;
        parse rest
    | arg :: _ ->
        Printf.eprintf
          "engine_bench: unknown argument %s\n\
           usage: engine_bench [--workload NAME] [--scale N] [--check]\n"
          arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv))

let workload =
  match Vmbp_workloads.find ~vm:Vmbp_workloads.Forth !workload_name with
  | Some w -> w
  | None ->
      Printf.eprintf "engine_bench: no Forth workload named %s\n"
        !workload_name;
      exit 2

let techniques = Vmbp_core.Technique.paper_gforth_variants
let fuel = Vmbp_report.Runner.engine_fuel

let null_sink =
  {
    Vmbp_core.Engine.on_dispatch =
      (fun ~branch:_ ~target:_ ~opcode:_ ~vm_transfer:_ -> ());
    on_fetch = (fun ~addr:_ ~bytes:_ ~opcode:_ -> ());
  }

(* All load/profile/layout-build work happens here, outside the timed
   region; each layer run gets a fresh session and (for the event layers) a
   freshly built layout, so quickening state never leaks between layers. *)
let prepared =
  List.map
    (fun technique ->
      let loaded = workload.Vmbp_workloads.load ~scale:!scale in
      let profile =
        Vmbp_report.Runner.effective_profile ~scale:!scale ~technique workload
      in
      (technique, loaded, profile))
    techniques

let build_layout (technique, loaded, profile) =
  let config = Vmbp_core.Config.make technique in
  Vmbp_core.Config.build_layout ?profile config
    ~program:loaded.Vmbp_workloads.program

let time_layer f =
  let runs =
    List.map (fun p -> (p, build_layout p)) prepared
  in
  let steps = ref 0 in
  let t0 = Unix.gettimeofday () in
  List.iter (fun (p, layout) -> steps := !steps + f p layout) runs;
  let dt = Unix.gettimeofday () -. t0 in
  (!steps, dt)

let functional (_, loaded, _) _layout =
  let session = loaded.Vmbp_workloads.semantic_session () in
  let steps, trapped =
    Vmbp_core.Engine.run_functional ~fuel
      ~program:(Vmbp_vm.Program.copy loaded.Vmbp_workloads.program)
      ~exec:session.Vmbp_workloads.exec ()
  in
  assert (trapped = None);
  steps

let legacy (_, loaded, _) layout =
  let session = loaded.Vmbp_workloads.semantic_session () in
  let m = Vmbp_machine.Metrics.create () in
  let steps, trapped =
    Vmbp_core.Engine.run_events_legacy ~fuel ~metrics:m ~layout
      ~exec:session.Vmbp_workloads.exec ~sink:null_sink ()
  in
  assert (trapped = None);
  steps

let translated (_, loaded, _) layout =
  let session = loaded.Vmbp_workloads.semantic_session () in
  let m = Vmbp_machine.Metrics.create () in
  let steps, trapped =
    Vmbp_core.Engine.run_events ~fuel ~metrics:m ~layout
      ~exec:session.Vmbp_workloads.exec ~sink:null_sink ()
  in
  assert (trapped = None);
  steps

let record (_, loaded, _) layout =
  let session = loaded.Vmbp_workloads.semantic_session () in
  match
    Vmbp_report.Trace.record ~fuel ~layout ~exec:session.Vmbp_workloads.exec
      ~output:session.Vmbp_workloads.output ()
  with
  | None ->
      prerr_endline "engine_bench: recording overflowed";
      exit 1
  | Some tr ->
      let steps = Vmbp_report.Trace.steps tr in
      Vmbp_report.Trace.release tr;
      steps

(* The workload's control path, recorded from one real-semantics run
   outside the timed region. *)
let path =
  let loaded = workload.Vmbp_workloads.load ~scale:!scale in
  let session = loaded.Vmbp_workloads.semantic_session () in
  let path = ref None in
  let exec =
    Vmbp_core.Control_path.record ~output:session.Vmbp_workloads.output
      ~publish:(fun p -> path := Some p)
      session.Vmbp_workloads.exec
  in
  ignore
    (Vmbp_core.Engine.run_functional ~fuel
       ~program:(Vmbp_vm.Program.copy loaded.Vmbp_workloads.program)
       ~exec ());
  match !path with
  | Some p -> p
  | None ->
      prerr_endline "engine_bench: the training run did not halt";
      exit 1

let replayed _ layout =
  let m = Vmbp_machine.Metrics.create () in
  let steps, trapped =
    Vmbp_core.Engine.run_events ~fuel ~metrics:m ~layout
      ~exec:(Vmbp_core.Control_path.exec path) ~sink:null_sink ()
  in
  assert (trapped = None);
  steps

let () =
  let layers =
    [
      ("functional", functional);
      ("legacy", legacy);
      ("translated", translated);
      ("record", record);
      ("replayed", replayed);
    ]
  in
  Printf.printf "engine_bench: %s scale %d, %d techniques, fuel %d\n%!"
    workload.Vmbp_workloads.name !scale (List.length techniques) fuel;
  let rates =
    List.map
      (fun (name, f) ->
        let steps, dt = time_layer f in
        let rate = float_of_int steps /. dt in
        Printf.printf "  %-12s %9.2fs  %12d steps  %8.1f Msteps/s\n%!" name dt
          steps (rate /. 1e6);
        (name, (steps, rate)))
      layers
  in
  let rate name = snd (List.assoc name rates) in
  let ratio = rate "translated" /. rate "legacy" in
  let replay_ratio = rate "replayed" /. rate "translated" in
  Printf.printf "  translated/legacy: %.2fx\n%!" ratio;
  Printf.printf "  replayed/translated: %.2fx\n%!" replay_ratio;
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        prerr_endline ("engine_bench: " ^ msg);
        exit 1)
      fmt
  in
  if !check then begin
    let steps = fst (List.assoc "translated" rates) in
    List.iter
      (fun (name, (s, _)) ->
        if s <> steps then
          fail "%s layer ran %d steps, translated ran %d" name s steps)
      rates;
    if ratio < 0.95 then
      fail "translated loop slower than legacy (%.2fx < 0.95x)" ratio;
    if replay_ratio < 1.0 then
      fail "replayed loop slower than translated (%.2fx < 1x)" replay_ratio
  end
