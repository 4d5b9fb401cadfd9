(* Engine hot-loop microbenchmark: steps/sec of each interpreter layer.

   Layers, innermost out:
     functional        VM semantics alone (no layout, no events)
     legacy            pre-translation per-step loop, no-op sink
     translated        decode-once translated loop, no-op sink
     record            translated loop driving the trace-recording sink
     replayed          translated loop, no-op sink, driven by the program's
                       recorded control path instead of the VM semantics

   Every layer but [replayed] runs the real semantics.

   A last layer, [bank], times the banked simulator kernels alone
   ([Trace.replay_bank]) on one recorded trace: ns per event-config for
   a bank of each predictor kind (BTB, two-level, case-block) and for a
   bank of I-cache geometries, then the whole grid as one bank on one
   domain and spread over [Domain.recommended_domain_count] lanes.

   Each layer runs the same workloads/techniques on pre-built layouts, so
   the numbers isolate interpreter overhead from load/profile/build cost.
   CI runs this as a perf smoke: the translated loop must not be slower
   than the legacy loop it replaced (--check, with slack for noise), the
   replayed loop must not be slower than the translated loop with real
   semantics, every layer must execute the same number of steps, and the
   banked counters must equal singleton per-configuration replays exactly,
   and the lane-parallel bank's counters must equal the one-domain bank's.
   Bank timings are printed only, never gated. *)

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

(* The sweep's predictor and I-cache grid: BTBs of 5 sizes x 4
   associativities with and without 2-bit counters, 4 two-level and 4
   case-block tables, and 4 I-cache geometries (192-set 96KB/64B/8-way
   takes the [mod] set index). *)
let bank_kinds =
  let open Vmbp_machine in
  [
    ( "btb",
      List.concat_map
        (fun entries ->
          List.concat_map
            (fun associativity ->
              [
                Predictor.Btb (Btb.classic ~entries ~associativity);
                Predictor.Btb (Btb.with_counters ~entries ~associativity);
              ])
            [ 1; 2; 4; 8 ])
        [ 256; 512; 1024; 2048; 4096 ] );
    ( "two-level",
      List.concat_map
        (fun entries ->
          List.map
            (fun history -> Predictor.Two_level { Two_level.entries; history })
            [ 2; 4 ])
        [ 256; 1024 ] );
    ("case-block", List.map (fun n -> Predictor.Case_block n) [ 256; 512; 1024; 2048 ]);
  ]

let bank_icaches =
  List.map
    (fun (kb, line, assoc) ->
      Vmbp_machine.Icache.make_config ~size_bytes:(kb * 1024) ~line_bytes:line
        ~associativity:assoc)
    [ (8, 32, 2); (16, 32, 4); (32, 64, 4); (96, 64, 8) ]

(* The bank layer's trace is the sweep's [dynamic both] layout. *)
let record_trace () =
  let ((_, loaded, _) as p) =
    List.find
      (fun (technique, _, _) ->
        Vmbp_core.Technique.(descriptor technique = descriptor dynamic_both))
      prepared
  in
  let session = loaded.Vmbp_workloads.semantic_session () in
  match
    Vmbp_report.Trace.record ~fuel ~layout:(build_layout p)
      ~exec:session.Vmbp_workloads.exec ~output:session.Vmbp_workloads.output ()
  with
  | Some tr -> tr
  | None ->
      prerr_endline "engine_bench: recording overflowed";
      exit 1

(* Times one bank per kernel kind on a fresh trace, then returns the
   configurations whose banked result differs from a singleton replay of
   the same configuration on a second recording. *)
let bank_layer () =
  let module T = Vmbp_report.Trace in
  let open Vmbp_machine in
  let tr = record_trace () in
  let cpu ic = { Cpu_model.pentium4_northwood with Cpu_model.icache = ic } in
  Printf.printf "  bank (%d dispatches, %d fetches, %d-event blocks):\n%!"
    (T.dispatch_events tr) (T.fetch_events tr) T.block_events;
  let time name ~events bank =
    let t0 = Unix.gettimeofday () in
    let configs = bank () in
    let dt = Unix.gettimeofday () -. t0 in
    Printf.printf "    %-12s %3d configs %8.3fs  %6.2f ns/event-config\n%!" name
      configs dt
      (dt *. 1e9 /. float_of_int (events * configs))
  in
  List.iter
    (fun (name, kinds) ->
      time name ~events:(T.dispatch_events tr) (fun () ->
          T.replay_bank tr ~predictors:kinds ~icaches:[]))
    bank_kinds;
  time "icache" ~events:(T.fetch_events tr) (fun () ->
      T.replay_bank tr ~predictors:[] ~icaches:bank_icaches);
  (* The whole grid as one bank, on one domain and spread over lanes. *)
  let predictors = List.concat_map snd bank_kinds in
  let width = Domain.recommended_domain_count () in
  let lanes domains =
    let tr = record_trace () in
    let t0 = Unix.gettimeofday () in
    ignore (T.replay_bank ~domains tr ~predictors ~icaches:bank_icaches : int);
    (tr, Unix.gettimeofday () -. t0)
  in
  let one, t1 = lanes 1 in
  let wide, tw = lanes width in
  Printf.printf
    "    %-12s %3d configs %8.3fs at width 1, %.3fs at width %d: %.2fx\n%!"
    "lanes"
    (List.length predictors + List.length bank_icaches)
    t1 tw width (t1 /. tw);
  let control = record_trace () in
  let p0 = List.hd predictors and ic0 = List.hd bank_icaches in
  let cells =
    List.map (fun p -> (Predictor.descriptor p, cpu ic0, p)) predictors
    @ List.map (fun ic -> (Icache.descriptor ic, cpu ic, p0)) bank_icaches
  in
  let diverged what a b =
    List.filter_map
      (fun (name, cpu, predictor) ->
        let x = a ~cpu ~predictor in
        if x = None || x <> b ~cpu ~predictor then Some (name ^ what)
        else None)
      cells
  in
  let replay tr ~cpu ~predictor = Some (T.replay tr ~cpu ~predictor) in
  diverged "" (replay tr) (replay control)
  @ diverged
      (Printf.sprintf " at width %d" width)
      (T.replay_memo one) (T.replay_memo wide)

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
  let bank_diverged = bank_layer () in
  if !check then begin
    if bank_diverged <> [] then
      fail "banked counters differ from singleton replays or from the \
            one-domain bank for %s"
        (String.concat ", " bank_diverged);
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
