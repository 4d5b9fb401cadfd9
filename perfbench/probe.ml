(* The benchmark's probe: every piece of work the benchmark times inside an
   OCaml process.  run.py starts one fresh probe process per measured pass,
   so every pass starts cold, and reads the one JSON object each command
   prints on stdout.

   Commands:
     setup PROGRAMS              load and compile the programs, timed
     sweep-programs              the programs the sweep runs
     report OUT PROGRAMS [trace] the full paper report, as bench --report-only
     sweep OUT SEED [trace]      the predictor x I-cache design-space sweep
     sweep-reference OUT JOBS    every sweep cell, self-checked on JOBS domains
     cold PROGRAMS PROFILES      cold load and training-profile timings
     layers CELLS                layer probes over named cells (serve misses)
     plan SEED CLIENTS COUNT     the seeded zipf query plan of each client

   PROGRAMS is a comma-separated list of vm/workload/scale; PROFILES the
   same for training-profile targets.  With [trace], the pass runs with the
   program's spans on and is followed by the layer probes over the cells it
   produced.  Layer probes time single calls into the layers' public
   functions; they never change what the measured pass did. *)

open Vmbp_core
module W = Vmbp_workloads
module PR = Vmbp_report.Par_runner
module R = Vmbp_report.Runner
module Span = Vmbp_obs.Span
module Reg = Vmbp_obs.Registry

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Output: one flat-or-nested JSON object per command *)

type j = F of float | I of int | B of bool | S of string | O of (string * j) list

let string b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let rec render b = function
  | F f ->
      if Float.is_finite f then Printf.bprintf b "%.17g" f
      else Buffer.add_string b "null"
  | I i -> Printf.bprintf b "%d" i
  | B v -> Printf.bprintf b "%b" v
  | S s -> string b s
  | O kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          string b k;
          Buffer.add_char b ':';
          render b v)
        kvs;
      Buffer.add_char b '}'

let emit kvs =
  let b = Buffer.create 1024 in
  render b (O kvs);
  print_endline (Buffer.contents b)

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("probe: " ^ msg);
      exit 2)
    fmt

(* Peak resident set of this process, from the kernel's VmHWM line. *)
let vmhwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> 0
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6))
                " %d" Fun.id
            else go ()
      in
      let kb = go () in
      close_in ic;
      kb

(* ------------------------------------------------------------------ *)
(* Programs *)

let vm_of_string = function
  | "forth" -> W.Forth
  | "jvm" -> W.Jvm
  | s -> fail "unknown vm %s" s

let workload vm name =
  match W.find ~vm:(vm_of_string vm) name with
  | Some w -> w
  | None -> fail "unknown workload %s/%s" vm name

let parse_programs s =
  String.split_on_char ',' s
  |> List.filter (fun p -> p <> "")
  |> List.map (fun p ->
         match String.split_on_char '/' p with
         | [ vm; name; scale ] -> (workload vm name, int_of_string scale)
         | _ -> fail "bad program %s" p)

let program_spec ((w : W.t), scale) =
  Printf.sprintf "%s/%s/%d" (W.vm_name w.W.vm) w.W.name scale

let load_all programs =
  snd
    (timed (fun () ->
         List.iter (fun ((w : W.t), scale) -> ignore (w.W.load ~scale)) programs))

let dedup key xs =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun x ->
      let k = key x in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    xs

(* ------------------------------------------------------------------ *)
(* The report workload: exactly what bench/main.exe --report-only prints *)

let render_report () =
  let b = Buffer.create (1 lsl 16) in
  Buffer.add_string b
    "==================================================================\n\
    \ Reproduction report: Casey, Ertl, Gregg -- Optimizing Indirect\n\
    \ Branch Prediction Accuracy in Virtual Machine Interpreters\n\
     ==================================================================\n\n";
  List.iter
    (fun (e : Vmbp_report.Experiments.t) ->
      Printf.bprintf b "== %s ==\n" e.Vmbp_report.Experiments.title;
      Printf.bprintf b "Paper: %s\n\n" e.Vmbp_report.Experiments.paper_claim;
      Buffer.add_string b
        (e.Vmbp_report.Experiments.run
           ~scale:e.Vmbp_report.Experiments.default_scale);
      Buffer.add_char b '\n')
    Vmbp_report.Experiments.all;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* The sweep workload *)

(* Eight programs at scale 2, Forth and JVM, from 7 KB to 170 KB of
   generated code. *)
let sweep_programs =
  List.map
    (fun (vm, name) -> (workload vm name, 2))
    [
      ("jvm", "javac"); ("jvm", "compress"); ("forth", "vmgen");
      ("forth", "brew"); ("jvm", "mpeg"); ("jvm", "jack"); ("jvm", "jess");
      ("forth", "gray");
    ]

let sweep_techniques = [ Technique.dynamic_both; Technique.across_bb ]

(* 48 predictor overrides: BTBs of 5 sizes x 4 associativities, with and
   without 2-bit counters, plus 4 two-level and 4 case-block tables. *)
let sweep_predictors =
  let open Vmbp_machine in
  let btbs =
    List.concat_map
      (fun entries ->
        List.concat_map
          (fun associativity ->
            [
              Predictor.Btb (Btb.classic ~entries ~associativity);
              Predictor.Btb (Btb.with_counters ~entries ~associativity);
            ])
          [ 1; 2; 4; 8 ])
      [ 256; 512; 1024; 2048; 4096 ]
  in
  let two_level =
    List.concat_map
      (fun entries ->
        List.map
          (fun history -> Predictor.Two_level { Two_level.entries; history })
          [ 2; 4 ])
      [ 256; 1024 ]
  in
  let case_block =
    List.map (fun n -> Predictor.Case_block n) [ 256; 512; 1024; 2048 ]
  in
  btbs @ two_level @ case_block

(* Four I-cache geometries on the Pentium 4 profile. *)
let sweep_cpus =
  List.map
    (fun (kb, line, assoc) ->
      {
        Vmbp_machine.Cpu_model.pentium4_northwood with
        Vmbp_machine.Cpu_model.name =
          Printf.sprintf "sweep-ic%dk-%d-%d" kb line assoc;
        icache =
          Vmbp_machine.Icache.make_config ~size_bytes:(kb * 1024)
            ~line_bytes:line ~associativity:assoc;
      })
    [ (8, 32, 2); (16, 32, 4); (32, 64, 4); (96, 64, 8) ]

let grid programs =
  List.concat_map
    (fun (w, scale) ->
      List.concat_map
        (fun technique ->
          List.concat_map
            (fun cpu ->
              List.map
                (fun predictor ->
                  PR.cell ~tag:"sweep" ~scale ~predictor ~cpu ~technique w)
                sweep_predictors)
            sweep_cpus)
        sweep_techniques)
    programs

(* Every seed sweeps the same cells, so every seed does the same work; the
   seed shuffles their order, which fixes the order of the groups and of
   the configurations inside each bank. *)
let sweep_cells seed =
  let cells = Array.of_list (grid sweep_programs) in
  let st = Random.State.make [| seed |] in
  for i = Array.length cells - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let c = cells.(i) in
    cells.(i) <- cells.(j);
    cells.(j) <- c
  done;
  Array.to_list cells

(* Sweep cells keyed by the predictor's parameter-complete descriptor (the
   vmbp-cells summary names only its kind). *)
let write_sweep_cells ~file (timed : PR.timed list) =
  let b = Buffer.create (1 lsl 20) in
  Buffer.add_string b "{\"cells\":[\n";
  List.iteri
    (fun i (t : PR.timed) ->
      let c = t.PR.cell in
      if i > 0 then Buffer.add_string b ",\n";
      render b
        (O
           ([
              ("vm", S (W.vm_name c.PR.workload.W.vm));
              ("workload", S c.PR.workload.W.name);
              ("technique", S (Technique.name c.PR.technique));
              ("cpu", S c.PR.cpu.Vmbp_machine.Cpu_model.name);
              ("scale", I c.PR.scale);
              ( "predictor",
                S
                  (Option.fold ~none:"" ~some:Vmbp_machine.Predictor.descriptor
                     c.PR.predictor) );
            ]
           @
           match t.PR.outcome with
           | Ok r ->
               let m = r.R.result.Engine.metrics in
               [
                 ("ok", B true);
                 ("cycles", F r.R.result.Engine.cycles);
                 ("mispredicts", I m.Vmbp_machine.Metrics.mispredicts);
                 ("icache_misses", I m.Vmbp_machine.Metrics.icache_misses);
                 ("vm_instrs", I m.Vmbp_machine.Metrics.vm_instrs);
                 ("dispatches", I m.Vmbp_machine.Metrics.dispatches);
                 ("code_bytes", I m.Vmbp_machine.Metrics.code_bytes);
               ]
           | Error msg -> [ ("ok", B false); ("error", S msg) ])))
    timed;
  Buffer.add_string b "\n]}\n";
  Out_channel.with_open_bin file (fun oc -> Buffer.output_buffer oc b)

(* ------------------------------------------------------------------ *)
(* Layer probes *)

type acc = {
  mutable groups : int;
  mutable build_s : float;
  mutable code_bytes : int;
  mutable translate_s : float;
  mutable vm_steps : int;
  mutable semantics_s : float;
  mutable loop_s : float;
  mutable dispatches : int;
  mutable fetches : int;
  mutable records : int;
  mutable record_s : float;
  mutable bytes_peak : int;
  mutable bank_s : float;
  mutable bank_configs : int;
  mutable pred_s : float;  (** phase 1: every predictor plus one I-cache *)
  mutable pred_events : int;
  mutable pred_fetches : int;
  mutable icache_s : float;  (** phase 2: the remaining I-caches only *)
  mutable icache_events : int;
  mutable cost_model_s : float;
  mutable replays : int;
  mutable mismatches : int;
}

let new_acc () =
  {
    groups = 0; build_s = 0.; code_bytes = 0; translate_s = 0.;
    vm_steps = 0; semantics_s = 0.;
    loop_s = 0.; dispatches = 0; fetches = 0; records = 0; record_s = 0.;
    bytes_peak = 0; bank_s = 0.; bank_configs = 0; pred_s = 0.;
    pred_events = 0; pred_fetches = 0; icache_s = 0.; icache_events = 0;
    cost_model_s = 0.; replays = 0; mismatches = 0;
  }

(* The extra I-cache geometry phase 2 banks when a group has only one, so
   the predictor / I-cache split is measured on every workload. *)
let probe_icache =
  Vmbp_machine.Icache.make_config ~size_bytes:(16 * 1024) ~line_bytes:32
    ~associativity:4

let banked_groups = 12

(* One group = the cells sharing (workload, technique, scale).  [expected]
   carries each cell's numbers from the measured pass when known. *)
let probe_group acc semantics ~(w : W.t) ~scale ~technique
    (cells : (PR.cell * float option) list) =
  let loaded = w.W.load ~scale in
  let profile = R.effective_profile ~scale ~technique w in
  let config = Config.make technique in
  let layout, dt =
    timed (fun () ->
        Config.build_layout ?profile config ~program:loaded.W.program)
  in
  acc.groups <- acc.groups + 1;
  acc.build_s <- acc.build_s +. dt;
  let translation, dt = timed (fun () -> Engine.translate layout) in
  acc.translate_s <- acc.translate_s +. dt;
  let key = program_spec (w, scale) in
  let sem_s =
    match Hashtbl.find_opt semantics key with
    | Some s -> s
    | None ->
        let program = Vmbp_vm.Program.copy loaded.W.program in
        let session = loaded.W.fresh_session () in
        let (steps, _), dt =
          timed (fun () ->
              Engine.run_functional ~fuel:R.engine_fuel ~program
                ~exec:session.W.exec ())
        in
        acc.vm_steps <- acc.vm_steps + steps;
        acc.semantics_s <- acc.semantics_s +. dt;
        Hashtbl.replace semantics key dt;
        dt
  in
  let nd = ref 0 and nf = ref 0 in
  let sink =
    {
      Engine.on_dispatch =
        (fun ~branch:_ ~target:_ ~opcode:_ ~vm_transfer:_ -> incr nd);
      on_fetch = (fun ~addr:_ ~bytes:_ ~opcode:_ -> incr nf);
    }
  in
  let session = loaded.W.fresh_session () in
  let metrics = Vmbp_machine.Metrics.create () in
  let _, dt =
    timed (fun () ->
        Engine.run_events ~fuel:R.engine_fuel ~translation ~metrics ~layout
          ~exec:session.W.exec ~sink ())
  in
  acc.loop_s <- acc.loop_s +. Float.max 0. (dt -. sem_s);
  acc.dispatches <- acc.dispatches + !nd;
  acc.fetches <- acc.fetches + !nf;
  acc.code_bytes <- acc.code_bytes + layout.Code_layout.runtime_code_bytes;
  (* Record and bank only where the program itself would, groups with more
     than one simulator configuration, and at most [banked_groups] of them:
     enough for the per-event rates, without making the traced run of a
     workload with hundreds of such groups several times its length. *)
  let resolved =
    List.map
      (fun ((c : PR.cell), _) ->
        ( c,
          Config.predictor_kind (Config.make ~cpu:c.PR.cpu ?predictor:c.PR.predictor technique),
          c.PR.cpu.Vmbp_machine.Cpu_model.icache ))
      cells
  in
  let distinct_configs =
    dedup
      (fun (_, p, ic) ->
        Vmbp_machine.Predictor.descriptor p ^ "/" ^ Vmbp_machine.Icache.descriptor ic)
      resolved
  in
  if List.length distinct_configs > 1 && acc.records < banked_groups then
    match
      timed (fun () -> R.record ~scale ~technique w)
    with
    | Error _, _ -> ()
    | Ok tr, dt ->
        acc.records <- acc.records + 1;
        acc.record_s <- acc.record_s +. dt;
        acc.bytes_peak <- max acc.bytes_peak (R.trace_bytes tr);
        let preds =
          dedup (fun (_, p, _) -> Vmbp_machine.Predictor.descriptor p) resolved
        in
        let c0, p0, ic0 = List.hd resolved in
        let cpu0 = c0.PR.cpu in
        let n1, dt1 =
          timed (fun () ->
              R.replay_bank
                ~configs:(List.map (fun (_, p, _) -> (cpu0, Some p)) preds)
                tr)
        in
        acc.pred_s <- acc.pred_s +. dt1;
        acc.pred_events <- acc.pred_events + (!nd * List.length preds);
        acc.pred_fetches <- acc.pred_fetches + !nf;
        let icaches =
          dedup Vmbp_machine.Icache.descriptor
            (List.map (fun (_, _, ic) -> ic) resolved @ [ probe_icache ])
          |> List.filter (fun ic ->
                 Vmbp_machine.Icache.descriptor ic
                 <> Vmbp_machine.Icache.descriptor ic0)
        in
        let n2, dt2 =
          timed (fun () ->
              R.replay_bank
                ~configs:
                  (List.map
                     (fun ic ->
                       ({ cpu0 with Vmbp_machine.Cpu_model.icache = ic }, Some p0))
                     icaches)
                tr)
        in
        acc.icache_s <- acc.icache_s +. dt2;
        acc.icache_events <- acc.icache_events + (!nf * List.length icaches);
        acc.bank_s <- acc.bank_s +. dt1 +. dt2;
        acc.bank_configs <- acc.bank_configs + n1 + n2;
        List.iter
          (fun ((c : PR.cell), expected) ->
            let r, dt =
              timed (fun () ->
                  R.replay ?predictor:c.PR.predictor ~cpu:c.PR.cpu tr)
            in
            acc.cost_model_s <- acc.cost_model_s +. dt;
            acc.replays <- acc.replays + 1;
            match (r, expected) with
            | Ok r, Some cycles when r.R.result.Engine.cycles <> cycles ->
                acc.mismatches <- acc.mismatches + 1
            | Error _, Some _ -> acc.mismatches <- acc.mismatches + 1
            | _ -> ())
          cells;
        R.release_trace tr

(* Group cells by (workload, technique descriptor, scale), in first-seen
   order. *)
let groups (cells : (PR.cell * float option) list) =
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun (((c : PR.cell), _) as x) ->
      let k =
        Printf.sprintf "%s/%s/%d" (program_spec (c.PR.workload, c.PR.scale))
          (Technique.descriptor c.PR.technique) c.PR.scale
      in
      match Hashtbl.find_opt tbl k with
      | Some l -> l := x :: !l
      | None ->
          let l = ref [ x ] in
          Hashtbl.add tbl k l;
          order := l :: !order)
    cells;
  List.rev_map (fun l -> List.rev !l) !order

(* Persist up to [store_sample] of the cells in a fresh store and read them
   back: the store layer's cost for this workload's results. *)
let store_sample = 256

let probe_store ~dir (timed_cells : PR.timed list) =
  let entries =
    List.filter_map
      (fun (t : PR.timed) ->
        match t.PR.outcome with
        | Ok r ->
            Some
              {
                Vmbp_store.Cellrec.key = PR.store_key t.PR.cell;
                fingerprint = PR.config_fingerprint t.PR.cell;
                outcome =
                  Ok
                    {
                      Vmbp_store.Cellrec.metrics = r.R.result.Engine.metrics;
                      steps = r.R.result.Engine.steps;
                      output = r.R.output;
                    };
                attempts = 1;
                timed_out = false;
              }
        | Error _ -> None)
      timed_cells
    |> dedup (fun (e : Vmbp_store.Cellrec.entry) -> e.Vmbp_store.Cellrec.key)
    |> List.filteri (fun i _ -> i < store_sample)
  in
  let store = Vmbp_store.Store.open_ dir in
  let (), append_s =
    timed (fun () -> List.iter (Vmbp_store.Store.append store) entries)
  in
  let found, lookup_s =
    timed (fun () ->
        List.fold_left
          (fun n (e : Vmbp_store.Cellrec.entry) ->
            match
              Vmbp_store.Store.lookup store ~key:e.Vmbp_store.Cellrec.key
                ~fingerprint:e.Vmbp_store.Cellrec.fingerprint
            with
            | Some _ -> n + 1
            | None -> n)
          0 entries)
  in
  Vmbp_store.Store.close store;
  let n = List.length entries in
  [
    ("store.appends", I n);
    ("store.fsyncs", I n);
    ("store.append_s", F append_s);
    ("store.lookups", I n);
    ("store.lookup_s", F lookup_s);
    ("store.lost", I (n - found));
  ]

(* Time the service's request parser on this workload's cells phrased as
   query payloads. *)
let probe_parse (cells : PR.cell list) =
  let payloads =
    List.filteri (fun i _ -> i < store_sample) cells
    |> List.map (fun (c : PR.cell) ->
           Vmbp_service.Protocol.query_payload
             ~vm:(W.vm_name c.PR.workload.W.vm)
             ~workload:c.PR.workload.W.name
             ~technique:(Technique.name c.PR.technique)
             ~cpu:c.PR.cpu.Vmbp_machine.Cpu_model.name ~scale:c.PR.scale ())
  in
  snd
    (timed (fun () ->
         List.iter
           (fun p -> ignore (Vmbp_service.Protocol.request_of_payload p))
           payloads))

let layer_probes cells =
  let acc = new_acc () in
  let semantics = Hashtbl.create 32 in
  List.iter
    (fun group ->
      let (c : PR.cell), _ = List.hd group in
      probe_group acc semantics ~w:c.PR.workload ~scale:c.PR.scale
        ~technique:c.PR.technique group)
    (groups cells);
  let ns s events = if events > 0 then s *. 1e9 /. float_of_int events else 0. in
  let icache_ns = ns acc.icache_s acc.icache_events in
  let predictor_ns =
    ns
      (Float.max 0. (acc.pred_s -. (icache_ns *. 1e-9 *. float_of_int acc.pred_fetches)))
      acc.pred_events
  in
  [
    ("probe.groups", I acc.groups);
    ("probe.programs", I (Hashtbl.length semantics));
    ("layout.build_s", F acc.build_s);
    ("layout.code_bytes", I acc.code_bytes);
    ("engine.translate_s", F acc.translate_s);
    ("engine.vm_steps", I acc.vm_steps);
    ("engine.semantics_s", F acc.semantics_s);
    ("engine.loop_s", F acc.loop_s);
    ("machine.dispatches", I acc.dispatches);
    ("machine.fetches", I acc.fetches);
    ("machine.bank_s", F acc.bank_s);
    ("probe.banked_configs", I acc.bank_configs);
    ( "machine.ns_per_event_config",
      F (ns acc.bank_s (acc.pred_events + acc.pred_fetches + acc.icache_events)) );
    ("machine.predictor_ns_per_event_config", F predictor_ns);
    ("machine.icache_ns_per_event_config", F icache_ns);
    ("machine.cost_model_s", F acc.cost_model_s);
    ("probe.replays", I acc.replays);
    ("probe.banked_groups", I acc.records);
    ("trace.record_s", F acc.record_s);
    ("trace.bytes_peak", I acc.bytes_peak);
    ("probe.mismatches", I acc.mismatches);
  ]

(* ------------------------------------------------------------------ *)
(* Measured passes *)

let counter name =
  match Reg.find_counter name with Some v -> Int64.to_int v | None -> 0

let programs_of_cells (cells : PR.cell list) =
  dedup program_spec
    (List.map (fun (c : PR.cell) -> (c.PR.workload, c.PR.scale)) cells)

let profile_keys (cells : PR.cell list) =
  List.filter (fun (c : PR.cell) -> Technique.uses_static_selection c.PR.technique) cells
  |> programs_of_cells

(* Load the programs (the set-up sample), then run [work] once, timed, with
   the program's spans on when [trace].  Every pass is its own process, so
   caches, memo tables and the GC start cold. *)
let pass ~trace ~out ~programs ~work =
  Vmbp_report.Audit.reset_stats ();
  Reg.reset ();
  let load_s = load_all programs in
  if trace then Span.enable ();
  let gc0 = Gc.quick_stat () in
  let extra, wall_s = timed work in
  let gc1 = Gc.quick_stat () in
  if trace then Span.disable ();
  let timed_cells = PR.drain_log () in
  PR.write_json_summary ~jobs:1 ~file:(Filename.concat out "cells.json") timed_cells;
  let lookups = counter "trace_cache.live_hits" + counter "trace_cache.memo_hits" in
  let base =
    [
      ("load_s", F load_s);
      ("wall_s", F wall_s);
      ("vmhwm_kb", I (vmhwm_kb ()));
      ("gc.minor_words", F (gc1.Gc.minor_words -. gc0.Gc.minor_words));
      ("gc.major_collections", I (gc1.Gc.major_collections - gc0.Gc.major_collections));
      ("trace_cache.hits", I lookups);
      ("trace_cache.misses", I (counter "trace_cache.misses"));
      ("divergences", I (Vmbp_report.Audit.divergence_count ()));
    ]
    @ extra
  in
  if not trace then emit base
  else begin
    Span.write ~file:(Filename.concat out "trace.json");
    let cells = List.map (fun (t : PR.timed) -> t.PR.cell) timed_cells in
    let expected =
      List.map
        (fun (t : PR.timed) ->
          ( t.PR.cell,
            match t.PR.outcome with
            | Ok r -> Some r.R.result.Engine.cycles
            | Error _ -> None ))
        timed_cells
    in
    let layers = layer_probes expected in
    let store = probe_store ~dir:(Filename.concat out "store-probe") timed_cells in
    let parse_s = probe_parse cells in
    emit
      (base
      @ [
          ("layers", O (layers @ store @ [ ("service.parse_s", F parse_s) ]));
          ("programs", S (String.concat "," (List.map program_spec (programs_of_cells cells))));
          ("profiles", S (String.concat "," (List.map program_spec (profile_keys cells))));
        ])
  end

let run_report ~trace ~out ~programs =
  pass ~trace ~out ~programs ~work:(fun () ->
      let text = render_report () in
      let oc = open_out (Filename.concat out "report.txt") in
      output_string oc text;
      close_out oc;
      [ ("report_md5", S (Digest.to_hex (Digest.string text))) ])

let run_sweep ~trace ~out ~seed =
  (* Every cell is checked against the self-checked reference instead of a
     sampled fresh run. *)
  PR.audit_sample := 0.;
  pass ~trace ~out ~programs:sweep_programs ~work:(fun () ->
      let timed_cells = PR.run_cells (sweep_cells seed) in
      write_sweep_cells ~file:(Filename.concat out "sweep.json") timed_cells;
      [])

let sweep_reference ~out ~jobs =
  Vmbp_report.Audit.reset_stats ();
  Vmbp_report.Audit.repro_dir := out;
  PR.self_check := true;
  let timed_cells = PR.run_cells ~jobs (grid sweep_programs) in
  write_sweep_cells ~file:(Filename.concat out "sweep_reference.json") timed_cells;
  emit
    [
      ("cells", I (List.length timed_cells));
      ( "failed",
        I (List.length (List.filter (fun (t : PR.timed) -> Result.is_error t.PR.outcome) timed_cells)) );
      ( "audited",
        I (List.length (List.filter (fun (t : PR.timed) -> t.PR.audited) timed_cells)) );
      ("divergences", I (Vmbp_report.Audit.divergence_count ()));
    ]

(* Cold load and training-profile timings, in a fresh process: both are
   memoised for the life of a process, so the measured pass cannot show
   them separately. *)
let cold ~programs ~profiles =
  let load_s = load_all (programs @ profiles) in
  let (), profile_s =
    timed (fun () ->
        List.iter
          (fun ((w : W.t), scale) ->
            ignore
              (W.training_profile ~vm:w.W.vm ~target:w.W.name ~scale ()))
          profiles)
  in
  [ ("workloads.load_s", F load_s); ("workloads.profile_s", F profile_s) ]

(* The serve workload's computed cells, one "vm workload technique cpu
   scale" line each (technique names may contain spaces, so fields are
   tab-separated). *)
let read_named_cells file =
  let ic = open_in file in
  let rec go acc =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | line when String.trim line = "" -> go acc
    | line -> (
        match String.split_on_char '\t' line with
        | [ vm; name; tech; cpu; scale ] ->
            let technique =
              match Technique.of_name tech with
              | Some t -> t
              | None -> fail "unknown technique %s" tech
            in
            let cpu =
              match Vmbp_machine.Cpu_model.find cpu with
              | Some c -> c
              | None -> fail "unknown cpu %s" cpu
            in
            go
              (PR.cell ~tag:"serve" ~scale:(int_of_string scale) ~cpu ~technique
                 (workload vm name)
              :: acc)
        | _ -> fail "bad cell line %S" line)
  in
  let cells = go [] in
  close_in ic;
  cells

let layers ~cells_file =
  let cells = read_named_cells cells_file in
  let cold = cold ~programs:(programs_of_cells cells) ~profiles:(profile_keys cells) in
  emit (cold @ layer_probes (List.map (fun c -> (c, None)) cells))

let plan ~seed ~clients ~count =
  let cfg = { (Vmbp_service.Loadgen.default_config ~socket:"") with seed; clients } in
  for index = 0 to clients - 1 do
    List.iter
      (fun (vm, w, t, cpu) ->
        emit [ ("client", I index); ("vm", S vm); ("workload", S w); ("technique", S t); ("cpu", S cpu) ])
      (Vmbp_service.Loadgen.query_plan cfg ~index ~count)
  done

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "setup"; programs ] -> emit [ ("load_s", F (load_all (parse_programs programs))) ]
  | [ "sweep-programs" ] -> print_endline (String.concat "," (List.map program_spec sweep_programs))
  | "report" :: out :: programs :: rest ->
      run_report ~trace:(rest = [ "trace" ]) ~out ~programs:(parse_programs programs)
  | "sweep" :: out :: seed :: rest ->
      run_sweep ~trace:(rest = [ "trace" ]) ~out ~seed:(int_of_string seed)
  | [ "sweep-reference"; out; jobs ] -> sweep_reference ~out ~jobs:(int_of_string jobs)
  | [ "cold"; programs; profiles ] ->
      emit (cold ~programs:(parse_programs programs) ~profiles:(parse_programs profiles))
  | [ "layers"; cells_file ] -> layers ~cells_file
  | [ "plan"; seed; clients; count ] ->
      plan ~seed:(int_of_string seed) ~clients:(int_of_string clients)
        ~count:(int_of_string count)
  | _ -> fail "usage: see the comment at the top of probe.ml"
