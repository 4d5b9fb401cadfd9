open Vmbp_core
open Vmbp_machine
open Vmbp_obs

type t = {
  run : Runner.run;
  pred_kind : Predictor.kind;
  pred_att : Attribution.t;
  icache_att : Attribution.t;
  pred_sets : int;
  icache_sets : int;
  iset : Vmbp_vm.Instr_set.t;
}

(* Re-run one cell with attribution observers attached to the production
   simulators.  The engine, fuel, training-profile policy and metric
   bookkeeping are exactly {!Runner.run}'s; the only additions are the
   observer hooks, which by contract cannot change any decision, so the
   attributed run must reproduce the unobserved counters bit for bit
   (checked below, and cross-checked against {!Runner.run_checked} by
   {!verify}). *)
let run ?(scale = 1) ?predictor ?profile ~cpu ~technique
    (workload : Vmbp_workloads.t) =
  match
    let loaded = workload.Vmbp_workloads.load ~scale in
    let profile = Runner.effective_profile ?profile ~scale ~technique workload in
    let config = Config.make ~cpu ?predictor technique in
    let layout =
      Config.build_layout ?profile config ~program:loaded.Vmbp_workloads.program
    in
    let session = loaded.Vmbp_workloads.fresh_session () in
    let m = Metrics.create () in
    let pred = Predictor.create (Config.predictor_kind config) in
    let icache = Icache.create cpu.Cpu_model.icache in
    let hits = ref 0 and misses = ref 0 in
    let pred_att = Attribution.create () in
    let icache_att = Attribution.create () in
    (* The opcode being dispatched to / fetched for, stashed by the sink so
       the observers (which only see simulator-level state) can attribute
       events to VM opcodes. *)
    let cur_op = ref (-1) in
    let cur_fetch_op = ref (-1) in
    (* Last displacer of each branch address (resp. cache line): recorded at
       eviction time, consulted when the victim later misses again.  A miss
       on a never-displaced branch is a cold miss; one on a displaced branch
       is a conflict, attributed to the displacing opcode. *)
    let branch_evictor : (int, int) Hashtbl.t = Hashtbl.create 256 in
    let line_evictor : (int, int) Hashtbl.t = Hashtbl.create 256 in
    let observed_pred = ref false in
    (match Predictor.btb pred with
    | Some b ->
        observed_pred := true;
        Btb.set_observer b
          (Some
             (fun ~branch ~set outcome ->
               match outcome with
               | Btb.Hit -> ()
               | Btb.Wrong_target ->
                   Attribution.note pred_att ~opcode:!cur_op ~branch ~set
                     Attribution.Wrong_target
               | Btb.Miss { evicted } ->
                   let category =
                     match Hashtbl.find_opt branch_evictor branch with
                     | Some op -> Attribution.Conflict op
                     | None -> Attribution.Cold
                   in
                   Attribution.note pred_att ~opcode:!cur_op ~branch ~set
                     category;
                   if evicted >= 0 then
                     Hashtbl.replace branch_evictor evicted !cur_op))
    | None -> ());
    (match Predictor.two_level pred with
    | Some p ->
        observed_pred := true;
        (* The two-level table has no tags: every access overwrites slot
           [index], so the displacement record is simply the last writer of
           each slot. *)
        let writer : (int, int * int) Hashtbl.t = Hashtbl.create 256 in
        Two_level.set_observer p
          (Some
             (fun ~branch ~index ~empty ~correct ->
               if not correct then begin
                 let category =
                   if empty then Attribution.Cold
                   else
                     match Hashtbl.find_opt writer index with
                     | Some (b, _) when b = branch -> Attribution.Wrong_target
                     | Some (_, op) -> Attribution.Conflict op
                     | None -> Attribution.Cold
                 in
                 Attribution.note pred_att ~opcode:!cur_op ~branch ~set:index
                   category
               end;
               Hashtbl.replace writer index (branch, !cur_op)))
    | None -> ());
    Icache.set_observer icache
      (Some
         (fun ~line ~set ~evicted ->
           let category =
             match Hashtbl.find_opt line_evictor line with
             | Some op -> Attribution.Conflict op
             | None -> Attribution.Cold
           in
           Attribution.note icache_att ~opcode:!cur_fetch_op ~branch:line ~set
             category;
           if evicted >= 0 then Hashtbl.replace line_evictor evicted !cur_fetch_op));
    let sink =
      {
        Engine.on_dispatch =
          (fun ~branch ~target ~opcode ~vm_transfer ->
            cur_op := opcode;
            if not (Predictor.access pred ~branch ~target ~opcode) then begin
              m.Metrics.mispredicts <- m.Metrics.mispredicts + 1;
              if vm_transfer then
                m.Metrics.vm_branch_mispredicts <-
                  m.Metrics.vm_branch_mispredicts + 1;
              (* Predictors without an observer hook (case block table,
                 perfect, never) have no cold/conflict structure to expose;
                 every miss is a stale-target miss on the opcode's entry. *)
              if not !observed_pred then
                Attribution.note pred_att ~opcode ~branch ~set:(-1)
                  Attribution.Wrong_target
            end);
        on_fetch =
          (fun ~addr ~bytes ~opcode ->
            cur_fetch_op := opcode;
            Icache.fetch icache ~addr ~bytes ~hits ~misses);
      }
    in
    let steps, trapped =
      Engine.run_events ~fuel:Runner.engine_fuel ~metrics:m ~layout
        ~exec:session.Vmbp_workloads.exec ~sink ()
    in
    m.Metrics.icache_fetches <- !hits + !misses;
    m.Metrics.icache_misses <- !misses;
    m.Metrics.code_bytes <- layout.Code_layout.runtime_code_bytes;
    let result =
      {
        Engine.metrics = m;
        cycles = Cpu_model.cycles cpu m;
        seconds = Cpu_model.seconds cpu m;
        steps;
        trapped;
      }
    in
    let pred_sets =
      match Config.predictor_kind config with
      | Predictor.Btb { entries; associativity; _ } when entries > 0 ->
          entries / associativity
      | Predictor.Two_level { entries; _ } -> entries
      | _ -> 0
    in
    let icache_sets =
      let c = cpu.Cpu_model.icache in
      if c.Icache.size_bytes = 0 then 0
      else c.Icache.size_bytes / c.Icache.line_bytes / c.Icache.associativity
    in
    ( result,
      session,
      Config.predictor_kind config,
      pred_att,
      icache_att,
      pred_sets,
      icache_sets,
      loaded.Vmbp_workloads.program.Vmbp_vm.Program.iset )
  with
  | result, session, pred_kind, pred_att, icache_att, pred_sets, icache_sets,
    iset -> (
      match result.Engine.trapped with
      | Some msg ->
          Error
            (Printf.sprintf "%s/%s under %s trapped: %s"
               (Vmbp_workloads.vm_name workload.Vmbp_workloads.vm)
               workload.Vmbp_workloads.name (Technique.name technique) msg)
      | None ->
          let m = result.Engine.metrics in
          (* The attribution totals are definitionally the simulator's own
             counters; a mismatch means an observer missed or double-counted
             an event and the whole explanation is untrustworthy. *)
          if Attribution.total pred_att <> m.Metrics.mispredicts then
            Error
              (Printf.sprintf
                 "attribution mismatch: %d attributed mispredicts vs %d counted"
                 (Attribution.total pred_att) m.Metrics.mispredicts)
          else if Attribution.total icache_att <> m.Metrics.icache_misses then
            Error
              (Printf.sprintf
                 "attribution mismatch: %d attributed I-cache misses vs %d \
                  counted"
                 (Attribution.total icache_att) m.Metrics.icache_misses)
          else
            Ok
              {
                run =
                  {
                    Runner.workload;
                    technique;
                    cpu;
                    result;
                    output = session.Vmbp_workloads.output ();
                    replayed = session.Vmbp_workloads.replayed;
                  };
                pred_kind;
                pred_att;
                icache_att;
                pred_sets;
                icache_sets;
                iset;
              })
  | exception Runner.Run_failed msg -> Error msg
  | exception exn -> Error (Printexc.to_string exn)

let verify ?scale ?predictor ?profile ~cpu ~technique workload t =
  match
    Runner.run_checked ?scale ?predictor ?profile ~cell:"explain" ~cpu
      ~technique workload
  with
  | Error msg -> Error ("self-check failed: " ^ msg)
  | Ok checked ->
      let c = checked.Runner.result.Engine.metrics in
      let a = t.run.Runner.result.Engine.metrics in
      if
        Attribution.total t.pred_att = c.Metrics.mispredicts
        && Attribution.total t.icache_att = c.Metrics.icache_misses
        && a.Metrics.mispredicts = c.Metrics.mispredicts
        && a.Metrics.icache_misses = c.Metrics.icache_misses
        && a.Metrics.vm_instrs = c.Metrics.vm_instrs
      then Ok ()
      else
        Error
          (Printf.sprintf
             "attribution disagrees with the self-checked run: attributed \
              %d/%d mispredicts, %d/%d I-cache misses"
             (Attribution.total t.pred_att)
             c.Metrics.mispredicts
             (Attribution.total t.icache_att)
             c.Metrics.icache_misses)

(* ------------------------------------------------------------------ *)
(* Rendering *)

let opcode_name iset op =
  if op < 0 then "(startup)"
  else
    match Vmbp_vm.Instr_set.get iset op with
    | i -> i.Vmbp_vm.Instr.name
    | exception _ -> Printf.sprintf "op%d" op

let pct part whole =
  if whole = 0 then "0.0%"
  else Printf.sprintf "%.1f%%" (100. *. float_of_int part /. float_of_int whole)

let attribution_table ~top ~iset ~what att =
  let total = Attribution.total att in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%s by opcode (%d total):\n" what total);
  let rows =
    Attribution.by_opcode att
    |> List.filteri (fun i _ -> i < top)
    |> List.map (fun (op, b) ->
           let t =
             b.Attribution.cold + b.Attribution.wrong + b.Attribution.conflict
           in
           [
             opcode_name iset op;
             Table.human_int t;
             Table.human_int b.Attribution.cold;
             Table.human_int b.Attribution.wrong;
             Table.human_int b.Attribution.conflict;
             pct t total;
           ])
  in
  Buffer.add_string buf
    (Table.render
       ~headers:[ "opcode"; "misses"; "cold"; "wrong-target"; "conflict"; "share" ]
       ~rows);
  buf

let conflict_table ~top ~iset ~what att buf =
  match Attribution.conflicts att with
  | [] -> ()
  | pairs ->
      Buffer.add_string buf (Printf.sprintf "\nTop %s conflicts:\n" what);
      let rows =
        pairs
        |> List.filteri (fun i _ -> i < top)
        |> List.map (fun ((victim, evictor, set), n) ->
               [
                 opcode_name iset victim;
                 opcode_name iset evictor;
                 (if set < 0 then "-" else string_of_int set);
                 Table.human_int n;
               ])
      in
      Buffer.add_string buf
        (Table.render ~headers:[ "victim"; "evicted by"; "set"; "count" ] ~rows)

(* Shade one cell of a per-set histogram: space for zero, then nine
   steps of increasing density up to the hottest set. *)
let shade_chars = " .:-=+*#%@"

let heatmap counts buf =
  let max_c = Array.fold_left max 0 counts in
  if max_c = 0 then Buffer.add_string buf "  (no events)\n"
  else
    Array.iteri
      (fun i c ->
        if i mod 64 = 0 then
          Buffer.add_string buf (if i = 0 then "  " else "\n  ");
        let idx = if c = 0 then 0 else min 9 (1 + (c * 8 / max_c)) in
        Buffer.add_char buf shade_chars.[idx])
      counts;
  if max_c > 0 then
    Buffer.add_string buf
      (Printf.sprintf "\n  (%d sets, 64 per row; '@' = %d events)\n"
         (Array.length counts) max_c)

let occupancy_heatmap att ~nsets buf =
  let occ = Attribution.set_occupancy att ~nsets in
  let max_c = Array.fold_left max 0 occ in
  if max_c > 0 then begin
    Buffer.add_string buf "\nPer-set occupancy (distinct missing addresses):\n";
    heatmap occ buf
  end

let section ~top ~iset ~what ~nsets att =
  let buf = attribution_table ~top ~iset ~what att in
  conflict_table ~top ~iset ~what:(String.lowercase_ascii what) att buf;
  if nsets > 0 && Attribution.total att > 0 then begin
    Buffer.add_string buf
      (Printf.sprintf "\nPer-set %s heatmap:\n" (String.lowercase_ascii what));
    heatmap (Attribution.set_counts att ~nsets) buf;
    occupancy_heatmap att ~nsets buf
  end;
  Buffer.contents buf

let render ?(top = 10) t =
  let r = t.run in
  let m = r.Runner.result.Engine.metrics in
  let header =
    Printf.sprintf
      "%s/%s  technique=%s  cpu=%s  predictor=%s\n\
       %s VM instrs, %s dispatches, %s mispredicts (%.1f%% of indirect \
       branches), %s I-cache misses\n\n"
      (Vmbp_workloads.vm_name r.Runner.workload.Vmbp_workloads.vm)
      r.Runner.workload.Vmbp_workloads.name
      (Technique.name r.Runner.technique)
      r.Runner.cpu.Cpu_model.name
      (Predictor.kind_name t.pred_kind)
      (Table.human_int m.Metrics.vm_instrs)
      (Table.human_int m.Metrics.dispatches)
      (Table.human_int m.Metrics.mispredicts)
      (100. *. Metrics.misprediction_rate m)
      (Table.human_int m.Metrics.icache_misses)
  in
  let pred =
    section ~top ~iset:t.iset ~what:"Mispredicts" ~nsets:t.pred_sets t.pred_att
  in
  let icache =
    if Attribution.total t.icache_att = 0 then
      "I-cache misses: none (infinite cache or fully resident).\n"
    else
      section ~top ~iset:t.iset ~what:"I-cache misses" ~nsets:t.icache_sets
        t.icache_att
  in
  header ^ pred ^ "\n" ^ icache
