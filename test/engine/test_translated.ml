(* Differential tests for the decode-once translated interpreter loop.

   [Engine.run_events] (block-entry guards over a pre-translated stream)
   must be observably identical to [Engine.run_events_legacy] (the
   per-step reference loop): same event stream into the sink, same
   deterministic metrics, same steps/trap reporting -- across every
   technique of the paper grid, across trap paths (fuel exhaustion,
   pc escape, semantic traps), and across real-VM workloads.  A second
   group checks the translation machinery itself: plan instantiation
   reproduces a fresh decode, and quickening's incremental re-translation
   leaves the translation equal to a from-scratch decode of the mutated
   layout. *)

open Vmbp_machine
open Vmbp_core
module Program = Vmbp_vm.Program
module Profile = Vmbp_vm.Profile
module Control = Vmbp_vm.Control
module T = Vmbp_toyvm.Toy_vm

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Event capture *)

type event =
  | Dispatch of { branch : int; target : int; opcode : int; vm_transfer : bool }
  | Fetch of { addr : int; bytes : int; opcode : int }

let capture () =
  let events = ref [] in
  let sink =
    {
      Engine.on_dispatch =
        (fun ~branch ~target ~opcode ~vm_transfer ->
          events := Dispatch { branch; target; opcode; vm_transfer } :: !events);
      on_fetch =
        (fun ~addr ~bytes ~opcode ->
          events := Fetch { addr; bytes; opcode } :: !events);
    }
  in
  (sink, fun () -> List.rev !events)

type stream = {
  steps : int;
  trapped : string option;
  checksum : int;
  metrics : Metrics.t;
  events : event list;
}

(* One full run of [program] under [technique] through either loop, on a
   private program copy (quickening mutates it), layout and state. *)
let stream ~legacy ?profile ?fuel ?(counters = 5) ~technique program =
  let program = Program.copy program in
  let config = Config.make ~cpu:Cpu_model.ideal technique in
  let profile =
    match profile with
    | Some _ as p -> p
    | None ->
        if Technique.uses_static_selection technique then begin
          let p = Profile.empty ~max_seq_len:4 in
          Profile.add_program p program;
          Some p
        end
        else None
  in
  let layout = Config.build_layout ?profile config ~program in
  let m = Metrics.create () in
  let state = T.create_state ~counters:(Array.make 16 counters) () in
  let sink, events = capture () in
  let steps, trapped =
    if legacy then
      Engine.run_events_legacy ?fuel ~metrics:m ~layout ~exec:(T.exec state)
        ~sink ()
    else
      Engine.run_events ?fuel ~metrics:m ~layout ~exec:(T.exec state) ~sink ()
  in
  {
    steps;
    trapped;
    checksum = T.checksum state;
    metrics = m;
    events = events ();
  }

let check_streams_equal ~what a b =
  check_int (what ^ ": steps") a.steps b.steps;
  Alcotest.(check (option string)) (what ^ ": trap") a.trapped b.trapped;
  check_int (what ^ ": checksum") a.checksum b.checksum;
  check_int (what ^ ": vm_instrs") a.metrics.Metrics.vm_instrs
    b.metrics.Metrics.vm_instrs;
  check_int (what ^ ": native_instrs") a.metrics.Metrics.native_instrs
    b.metrics.Metrics.native_instrs;
  check_int (what ^ ": dispatches") a.metrics.Metrics.dispatches
    b.metrics.Metrics.dispatches;
  check_int (what ^ ": indirect_branches")
    a.metrics.Metrics.indirect_branches b.metrics.Metrics.indirect_branches;
  check_int (what ^ ": quickenings") a.metrics.Metrics.quickenings
    b.metrics.Metrics.quickenings;
  check_int (what ^ ": events") (List.length a.events) (List.length b.events);
  check_bool (what ^ ": event streams identical") true (a.events = b.events)

let agree ?profile ?fuel ?counters ~what ~technique program =
  let t = stream ~legacy:false ?profile ?fuel ?counters ~technique program in
  let l = stream ~legacy:true ?profile ?fuel ?counters ~technique program in
  check_streams_equal ~what t l;
  t

(* Static selection needs a profile; give it one of the program itself. *)
let profile_for technique program =
  if Technique.uses_static_selection technique then begin
    let p = Profile.empty ~max_seq_len:4 in
    Profile.add_program p program;
    Some p
  end
  else None

(* The paper grid: every dispatch technique the report compares. *)
let grid_techniques () =
  [
    Technique.switch;
    Technique.plain;
    Technique.static_repl ();
    Technique.static_super ();
    Technique.static_both ();
    Technique.dynamic_repl;
    Technique.dynamic_super;
    Technique.dynamic_both;
    Technique.across_bb;
    Technique.subroutine;
  ]

(* ------------------------------------------------------------------ *)
(* 1. Translated vs legacy over the paper grid *)

let test_grid_toy_programs () =
  let programs =
    (("table1", T.table1_loop ()) :: ("table3", T.table3_loop ())
    :: List.map
         (fun seed ->
           ( Printf.sprintf "random-%d" seed,
             T.random_program ~seed ~size:40 ))
         [ 1; 2; 3; 4; 5; 6; 7; 8 ])
  in
  List.iter
    (fun (pname, program) ->
      List.iter
        (fun technique ->
          let what =
            Printf.sprintf "%s/%s" pname (Technique.descriptor technique)
          in
          let s = agree ~what ~technique program in
          check_bool (what ^ ": ran") true (s.steps > 0))
        (grid_techniques ()))
    programs

(* ------------------------------------------------------------------ *)
(* 2. Trap paths *)

(* A semantic trap from the workload: return with an empty call stack. *)
let test_trap_return_underflow () =
  let code =
    [|
      { Program.opcode = T.ops.T.op_a; operands = [||] };
      { Program.opcode = T.ops.T.op_ret; operands = [||] };
      { Program.opcode = T.ops.T.op_halt; operands = [||] };
    |]
  in
  let program = Program.make ~name:"underflow" ~iset:T.iset ~code ~entry:0 () in
  List.iter
    (fun technique ->
      let what = "underflow/" ^ Technique.descriptor technique in
      let s = agree ~what ~technique program in
      Alcotest.(check (option string))
        (what ^ ": trap message") (Some "return underflow") s.trapped)
    (grid_techniques ())

(* Hostile code: a goto rewritten out of range after the layout was
   built must surface as the engine's pc-bounds trap in both loops. *)
let test_trap_pc_escape () =
  let fresh_code () =
    [|
      { Program.opcode = T.ops.T.op_a; operands = [||] };
      { Program.opcode = T.ops.T.op_goto; operands = [| 0 |] };
      { Program.opcode = T.ops.T.op_halt; operands = [||] };
    |]
  in
  let run_escaped ~legacy ~technique target =
    let program =
      Program.make ~name:"pc-escape" ~iset:T.iset ~code:(fresh_code ())
        ~entry:0 ()
    in
    let config = Config.make ~cpu:Cpu_model.ideal technique in
    let layout =
      Config.build_layout ?profile:(profile_for technique program) config
        ~program
    in
    (* Rewrite the target after the layout was built and validated: the
       engine, not the loader, must catch the escape.  [build_layout]
       copies the program, so mutate the copy the engine will run. *)
    layout.Code_layout.program.Program.code.(1).Program.operands.(0) <-
      target;
    let m = Metrics.create () in
    let state = T.create_state ~counters:(Array.make 16 5) () in
    let sink, events = capture () in
    let steps, trapped =
      if legacy then
        Engine.run_events_legacy ~fuel:1_000 ~metrics:m ~layout
          ~exec:(T.exec state) ~sink ()
      else
        Engine.run_events ~fuel:1_000 ~metrics:m ~layout ~exec:(T.exec state)
          ~sink ()
    in
    {
      steps;
      trapped;
      checksum = T.checksum state;
      metrics = m;
      events = events ();
    }
  in
  List.iter
    (fun target ->
      List.iter
        (fun technique ->
          let what =
            Printf.sprintf "pc-escape(%d)/%s" target
              (Technique.descriptor technique)
          in
          let t = run_escaped ~legacy:false ~technique target in
          let l = run_escaped ~legacy:true ~technique target in
          check_streams_equal ~what t l;
          check_bool (what ^ ": trapped") true (t.trapped <> None))
        (grid_techniques ()))
    [ -1; 3; 9999 ]

(* Fuel exhaustion at every small budget: the translated loop's
   block-sized fuel credits must stop on exactly the same step as the
   per-step loop, including budgets that end mid-block. *)
let test_trap_fuel () =
  let program = T.table1_loop () in
  List.iter
    (fun fuel ->
      List.iter
        (fun technique ->
          let what =
            Printf.sprintf "fuel=%d/%s" fuel (Technique.descriptor technique)
          in
          let s = agree ~what ~technique ~fuel ~counters:1_000_000 program in
          Alcotest.(check (option string))
            (what ^ ": out of fuel") (Some Engine.out_of_fuel) s.trapped;
          check_int (what ^ ": stopped at the budget") fuel s.steps)
        [ Technique.plain; Technique.dynamic_both; Technique.subroutine ])
    [ 1; 2; 3; 5; 7; 11; 64; 1000 ]

(* ------------------------------------------------------------------ *)
(* 3. Full-run field equality across cpu x predictor *)

let run_full ~legacy ~cpu ~predictor ~technique program =
  let program = Program.copy program in
  let config =
    Config.make ~cpu:(Cpu_model.with_predictor cpu predictor) technique
  in
  let layout =
    Config.build_layout ?profile:(profile_for technique program) config
      ~program
  in
  let state = T.create_state ~counters:(Array.make 16 5) () in
  if legacy then begin
    (* [Engine.run] drives the translated loop; reproduce its simulator
       wiring around the legacy loop to compare complete results. *)
    let m = Metrics.create () in
    let predictor = Predictor.create (Config.predictor_kind config) in
    let icache = Icache.create cpu.Cpu_model.icache in
    let hits = ref 0 and misses = ref 0 in
    let sink =
      {
        Engine.on_dispatch =
          (fun ~branch ~target ~opcode ~vm_transfer ->
            if not (Predictor.access predictor ~branch ~target ~opcode)
            then begin
              m.Metrics.mispredicts <- m.Metrics.mispredicts + 1;
              if vm_transfer then
                m.Metrics.vm_branch_mispredicts <-
                  m.Metrics.vm_branch_mispredicts + 1
            end);
        on_fetch =
          (fun ~addr ~bytes ~opcode:_ ->
            Icache.fetch icache ~addr ~bytes ~hits ~misses);
      }
    in
    let steps, trapped =
      Engine.run_events_legacy ~fuel:1_000_000 ~metrics:m ~layout
        ~exec:(T.exec state) ~sink ()
    in
    m.Metrics.icache_fetches <- !hits + !misses;
    m.Metrics.icache_misses <- !misses;
    m.Metrics.code_bytes <- layout.Code_layout.runtime_code_bytes;
    (steps, trapped, m, Cpu_model.cycles cpu m, T.checksum state)
  end
  else begin
    let r =
      Engine.run ~fuel:1_000_000 ~config ~layout ~exec:(T.exec state) ()
    in
    ( r.Engine.steps,
      r.Engine.trapped,
      r.Engine.metrics,
      r.Engine.cycles,
      T.checksum state )
  end

let test_cpu_predictor_matrix () =
  let program = T.random_program ~seed:11 ~size:40 in
  let predictors =
    [
      Predictor.Btb (Btb.classic ~entries:256 ~associativity:1);
      Predictor.Btb (Btb.with_counters ~entries:128 ~associativity:2);
      Predictor.Btb Btb.ideal;
      Predictor.Perfect;
      Predictor.Never;
    ]
  in
  List.iter
    (fun cpu ->
      List.iter
        (fun predictor ->
          List.iter
            (fun technique ->
              let what =
                Printf.sprintf "%s/%s/%s" cpu.Cpu_model.name
                  (Predictor.kind_name predictor)
                  (Technique.descriptor technique)
              in
              let s1, t1, m1, c1, k1 =
                run_full ~legacy:false ~cpu ~predictor ~technique program
              and s2, t2, m2, c2, k2 =
                run_full ~legacy:true ~cpu ~predictor ~technique program
              in
              check_int (what ^ ": steps") s1 s2;
              Alcotest.(check (option string)) (what ^ ": trap") t1 t2;
              check_int (what ^ ": checksum") k1 k2;
              check_bool (what ^ ": metrics equal") true (m1 = m2);
              check_bool (what ^ ": cycles equal") true (c1 = c2))
            [ Technique.plain; Technique.static_both (); Technique.dynamic_both ])
        predictors)
    [ Cpu_model.celeron_800; Cpu_model.pentium4_northwood ]

(* ------------------------------------------------------------------ *)
(* 4. Real-VM workloads through both loops *)

let test_real_vm_workloads () =
  let pick vm name =
    match Vmbp_workloads.find ~vm name with
    | Some w -> w
    | None -> Alcotest.failf "workload %s not found" name
  in
  let workloads =
    [ pick Vmbp_workloads.Forth "gray"; pick Vmbp_workloads.Jvm "db" ]
  in
  List.iter
    (fun (w : Vmbp_workloads.t) ->
      List.iter
        (fun technique ->
          let what =
            Printf.sprintf "%s/%s/%s"
              (Vmbp_workloads.vm_name w.Vmbp_workloads.vm)
              w.Vmbp_workloads.name
              (Technique.descriptor technique)
          in
          let run legacy =
            let loaded = w.Vmbp_workloads.load ~scale:1 in
            let session = loaded.Vmbp_workloads.fresh_session () in
            let exec = session.Vmbp_workloads.exec in
            let config = Config.make ~cpu:Cpu_model.ideal technique in
            let layout =
              Config.build_layout
                ?profile:
                  (profile_for technique loaded.Vmbp_workloads.program)
                config ~program:loaded.Vmbp_workloads.program
            in
            let m = Metrics.create () in
            let sink, events = capture () in
            let steps, trapped =
              if legacy then
                Engine.run_events_legacy ~fuel:5_000_000 ~metrics:m ~layout
                  ~exec ~sink ()
              else
                Engine.run_events ~fuel:5_000_000 ~metrics:m ~layout ~exec
                  ~sink ()
            in
            (steps, trapped, m, events ())
          in
          let s1, t1, m1, e1 = run false and s2, t2, m2, e2 = run true in
          check_int (what ^ ": steps") s1 s2;
          Alcotest.(check (option string)) (what ^ ": trap") t1 t2;
          check_bool (what ^ ": metrics equal") true (m1 = m2);
          check_int (what ^ ": events") (List.length e1) (List.length e2);
          check_bool (what ^ ": event streams identical") true (e1 = e2))
        [ Technique.plain; Technique.static_both (); Technique.dynamic_both ])
    workloads

(* ------------------------------------------------------------------ *)
(* 5. Translation machinery: plans and quickening invalidation *)

let test_plan_instantiation () =
  List.iter
    (fun technique ->
      let what = "plan/" ^ Technique.descriptor technique in
      let program = T.random_program ~seed:21 ~size:30 in
      let config = Config.make ~cpu:Cpu_model.ideal technique in
      let layout =
        Config.build_layout ?profile:(profile_for technique program) config
          ~program
      in
      let plan = Engine.plan layout in
      check_int (what ^ ": plan_slots")
        (Program.length layout.Code_layout.program)
        (Engine.plan_slots plan);
      check_bool (what ^ ": instantiated = fresh") true
        (Engine.translation_equal
           (Engine.translation ~plan layout)
           (Engine.translate layout)))
    (grid_techniques ())

let test_plan_mismatch_rejected () =
  let program = T.random_program ~seed:22 ~size:30 in
  let config = Config.make ~cpu:Cpu_model.ideal Technique.plain in
  let layout = Config.build_layout config ~program in
  let plan = Engine.plan layout in
  let other =
    Config.build_layout
      (Config.make ~cpu:Cpu_model.ideal Technique.dynamic_both)
      ~program:(Program.copy program)
  in
  check_bool "technique mismatch raises" true
    (match Engine.translation ~plan other with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* After a run that quickened, the incrementally re-translated stream
   must equal a from-scratch decode of the mutated layout. *)
let test_quicken_retranslation () =
  List.iter
    (fun technique ->
      let what = "quicken/" ^ Technique.descriptor technique in
      let program = T.random_program ~seed:23 ~size:50 in
      let config = Config.make ~cpu:Cpu_model.ideal technique in
      let layout = Config.build_layout config ~program in
      let translation = Engine.translate layout in
      let m = Metrics.create () in
      let state = T.create_state ~counters:(Array.make 16 5) () in
      let sink, _ = capture () in
      let _steps, trapped =
        Engine.run_events ~fuel:1_000_000 ~translation ~metrics:m ~layout
          ~exec:(T.exec state) ~sink ()
      in
      Alcotest.(check (option string)) (what ^ ": no trap") None trapped;
      check_bool (what ^ ": program quickened") true
        (m.Metrics.quickenings > 0);
      check_bool (what ^ ": re-translation = fresh decode") true
        (Engine.translation_equal translation (Engine.translate layout)))
    [
      Technique.plain;
      Technique.dynamic_repl;
      Technique.dynamic_super;
      Technique.dynamic_both;
      Technique.across_bb;
    ]

(* ------------------------------------------------------------------ *)
(* 6. Recorded control paths (Control_path) *)

(* One translated-loop run of [program] under [technique]; [escape]
   rewrites the first goto of the layout's program copy to that target
   after the layout was built (a pc escape the engine must catch).
   [exec_of] gets the fresh toy state and returns the exec to run. *)
let run_with ?escape ?fuel ~technique ~exec_of program =
  let config = Config.make ~cpu:Cpu_model.ideal technique in
  let layout =
    Config.build_layout ?profile:(profile_for technique program) config
      ~program
  in
  Option.iter
    (fun target ->
      Array.iter
        (fun (s : Program.slot) ->
          if s.Program.opcode = T.ops.T.op_goto then
            s.Program.operands <- [| target |])
        layout.Code_layout.program.Program.code)
    escape;
  let m = Metrics.create () in
  let state = T.create_state ~counters:(Array.make 16 3) () in
  let sink, events = capture () in
  let steps, trapped =
    Engine.run_events ?fuel ~metrics:m ~layout ~exec:(exec_of state) ~sink ()
  in
  { steps; trapped; checksum = T.checksum state; metrics = m;
    events = events () }

(* Fuzz: random toy programs, some made to trap (a [ret] with an empty
   return stack), to escape the program or to run out of fuel.  A real
   run under one technique publishes its path exactly when it reached
   Halt or Trap; replaying that path under another technique equals a
   real run under that technique, event for event, also when the replay
   is itself cut by fuel. *)
let test_path_fuzz () =
  let techniques = Array.of_list (grid_techniques ()) in
  let published = ref 0 and unpublished = ref 0 and traps = ref 0 in
  for seed = 1 to 300 do
    let rng = Random.State.make [| seed; 77 |] in
    let program = T.random_program ~seed ~size:(8 + (seed mod 30)) in
    let mode = seed mod 4 in
    let program =
      if mode <> 1 then program
      else begin
        (* A [ret] in the main body traps with "return underflow". *)
        let p = Program.copy program in
        let entry = p.Program.entry in
        let k = entry + Random.State.int rng (Program.length p - entry - 2) in
        p.Program.code.(k) <- { Program.opcode = T.ops.T.op_ret; operands = [||] };
        p
      end
    in
    let escape =
      if mode = 2 then Some (if Random.State.bool rng then -1 else 100_000)
      else None
    in
    let fuel = if mode = 3 then Some (1 + Random.State.int rng 300) else None in
    let pick () = techniques.(Random.State.int rng (Array.length techniques)) in
    let a = pick () and b = pick () in
    let what =
      Printf.sprintf "seed %d (%s then %s)" seed (Technique.descriptor a)
        (Technique.descriptor b)
    in
    let path = ref None in
    let recorded =
      run_with ?escape ?fuel ~technique:a program ~exec_of:(fun state ->
          Control_path.record ~output:(fun () -> "")
            ~publish:(fun p -> path := Some p)
            (T.exec state))
    in
    let cut =
      recorded.trapped = Some Engine.out_of_fuel
      || recorded.trapped = Some "pc out of range"
    in
    check_bool (what ^ ": published iff Halt or Trap") (not cut)
      (!path <> None);
    if recorded.trapped = Some "return underflow" then incr traps;
    match !path with
    | None -> incr unpublished
    | Some p ->
        incr published;
        check_int (what ^ ": path steps") recorded.steps (Control_path.steps p);
        let real fuel = run_with ?escape ?fuel ~technique:b program ~exec_of:T.exec in
        (* A replay computes nothing, so it carries the checksum of the
           state it stands for: the recorded run's, which a real run
           under another technique must reproduce. *)
        let replay ~checksum fuel =
          let s =
            run_with ?escape ?fuel ~technique:b program ~exec_of:(fun _ ->
                Control_path.exec p)
          in
          { s with checksum }
        in
        check_streams_equal ~what (real fuel)
          (replay ~checksum:recorded.checksum fuel);
        let fuel = Some (1 + Random.State.int rng recorded.steps) in
        let cut = real fuel in
        check_streams_equal ~what:(what ^ " cut") cut
          (replay ~checksum:cut.checksum fuel)
  done;
  check_bool "some paths published" true (!published > 100);
  check_bool "some runs cut" true (!unpublished > 50);
  check_bool "some runs trapped" true (!traps > 50)

(* Replaying past the recorded final outcome is an error, not a silent
   [Next]. *)
let test_path_exhausted () =
  let program = T.table1_loop () in
  let path = ref None in
  let state = T.create_state ~counters:(Array.make 16 3) () in
  let _ =
    Engine.run_functional ~program:(Program.copy program)
      ~exec:
        (Control_path.record ~output:(fun () -> "out")
           ~publish:(fun p -> path := Some p)
           (T.exec state))
      ()
  in
  let p = Option.get !path in
  Alcotest.(check string) "output kept" "out" (Control_path.output p);
  let exec = Control_path.exec p in
  for _ = 1 to Control_path.steps p do
    ignore (exec program 0)
  done;
  check_bool "past the end raises" true
    (match exec program 0 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let () =
  Alcotest.run "translated engine"
    [
      ( "grid",
        [
          Alcotest.test_case "toy programs x paper grid" `Quick
            test_grid_toy_programs;
        ] );
      ( "traps",
        [
          Alcotest.test_case "return underflow" `Quick
            test_trap_return_underflow;
          Alcotest.test_case "pc escape" `Quick test_trap_pc_escape;
          Alcotest.test_case "fuel exhaustion" `Quick test_trap_fuel;
        ] );
      ( "full-run",
        [
          Alcotest.test_case "cpu x predictor matrix" `Quick
            test_cpu_predictor_matrix;
          Alcotest.test_case "real-VM workloads" `Quick
            test_real_vm_workloads;
        ] );
      ( "translation",
        [
          Alcotest.test_case "plan instantiation" `Quick
            test_plan_instantiation;
          Alcotest.test_case "plan mismatch rejected" `Quick
            test_plan_mismatch_rejected;
          Alcotest.test_case "quickening re-translation" `Quick
            test_quicken_retranslation;
        ] );
      ( "control-path",
        [
          Alcotest.test_case "toy fuzz: replay equals semantics" `Quick
            test_path_fuzz;
          Alcotest.test_case "replay past the end" `Quick test_path_exhausted;
        ] );
    ]
