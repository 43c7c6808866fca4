(* Tests for the Runtime layer: fibers (effect suspension, resumption,
   crash kill), the machine's memory-model dispatch, and the announcement
   structure. *)

open Nvm
open Runtime

let v = Test_support.value_testable
let i n = Value.Int n

(* --- Fiber --- *)

let test_fiber_completes_without_steps () =
  let f = Fiber.start (fun () -> i 7) in
  match Fiber.status f with
  | Fiber.Done x -> Alcotest.check v "value" (i 7) x
  | _ -> Alcotest.fail "expected Done"

let test_fiber_suspends_and_resumes () =
  let m = Machine.create () in
  let a = Machine.alloc_shared m "a" (i 1) in
  let f = Fiber.start (fun () -> Fiber.read a) in
  (match Fiber.status f with
  | Fiber.Pending (Prim.Read _) -> ()
  | _ -> Alcotest.fail "expected pending read");
  Fiber.resume f (i 42);
  match Fiber.status f with
  | Fiber.Done x -> Alcotest.check v "fed value" (i 42) x
  | _ -> Alcotest.fail "expected Done"

let test_fiber_sequence () =
  let m = Machine.create () in
  let a = Machine.alloc_shared m "a" (i 0) in
  let f =
    Fiber.start (fun () ->
        Fiber.write a (i 1);
        let x = Fiber.read a in
        Value.Int (Value.to_int x + 10))
  in
  let rec drive () =
    match Fiber.status f with
    | Fiber.Pending req ->
        Fiber.resume f (Machine.apply m req);
        drive ()
    | Fiber.Done x -> x
    | Fiber.Killed -> Alcotest.fail "killed"
  in
  Alcotest.check v "result" (i 11) (drive ());
  Alcotest.check v "memory" (i 1) (Machine.peek m a)

let test_fiber_kill () =
  let m = Machine.create () in
  let a = Machine.alloc_shared m "a" (i 0) in
  let side_effect = ref false in
  let f =
    Fiber.start (fun () ->
        Fiber.write a (i 1);
        side_effect := true;
        (* must never run: the fiber is killed while suspended *)
        Value.Unit)
  in
  Fiber.kill f;
  Alcotest.(check bool) "status killed" true (Fiber.status f = Fiber.Killed);
  Alcotest.(check bool) "continuation discarded" false !side_effect;
  (* idempotent *)
  Fiber.kill f;
  Alcotest.(check bool) "still killed" true (Fiber.status f = Fiber.Killed)

let test_fiber_resume_done_rejected () =
  let f = Fiber.start (fun () -> Value.Unit) in
  match Fiber.resume f Value.Unit with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "expected Invalid_argument"

let test_fiber_volatile_locals_lost () =
  (* a local mutable captured in the continuation dies with the fiber *)
  let m = Machine.create () in
  let a = Machine.alloc_shared m "a" (i 0) in
  let observed = ref [] in
  let f =
    Fiber.start (fun () ->
        let local = ref 1 in
        ignore (Fiber.read a);
        local := 2;
        ignore (Fiber.read a);
        observed := !local :: !observed;
        Value.Unit)
  in
  Fiber.resume f (i 0);
  Fiber.kill f;
  Alcotest.(check (list int)) "never reached the observation" [] !observed

(* --- Machine --- *)

let test_machine_private_cache_persist_noop () =
  let m = Machine.create ~model:Machine.Private_cache () in
  let a = Machine.alloc_shared m "a" (i 0) in
  ignore (Machine.apply m (Prim.Write (a, i 1)));
  (* in the private-cache model writes are immediately durable *)
  Machine.crash m ~index:0 (Fault_model.Keep (fun _ -> false));
  Alcotest.check v "write survived crash" (i 1) (Mem.read (Machine.mem m) a)

let test_machine_shared_cache_crash () =
  let m = Machine.create ~model:Machine.Shared_cache () in
  let a = Machine.alloc_shared m "a" (i 0) in
  ignore (Machine.apply m (Prim.Write (a, i 1)));
  Alcotest.check v "cache-coherent read" (i 1) (Machine.peek m a);
  Alcotest.check v "NVM still old" (i 0) (Mem.read (Machine.mem m) a);
  Machine.crash m ~index:0 (Fault_model.Keep (fun _ -> false));
  Alcotest.check v "unpersisted write lost" (i 0) (Machine.peek m a)

let test_machine_shared_cache_persist () =
  let m = Machine.create ~model:Machine.Shared_cache () in
  let a = Machine.alloc_shared m "a" (i 0) in
  ignore (Machine.apply m (Prim.Write (a, i 1)));
  ignore (Machine.apply m (Prim.Persist a));
  Machine.crash m ~index:0 (Fault_model.Keep (fun _ -> false));
  Alcotest.check v "persisted write survived" (i 1) (Machine.peek m a)

let test_machine_fence () =
  let m = Machine.create ~model:Machine.Shared_cache () in
  let a = Machine.alloc_shared m "a" (i 0) in
  let b = Machine.alloc_shared m "b" (i 0) in
  ignore (Machine.apply m (Prim.Write (a, i 1)));
  ignore (Machine.apply m (Prim.Write (b, i 2)));
  ignore (Machine.apply m Prim.Fence);
  Machine.crash m ~index:0 (Fault_model.Keep (fun _ -> false));
  Alcotest.check v "a persisted" (i 1) (Machine.peek m a);
  Alcotest.check v "b persisted" (i 2) (Machine.peek m b)

let test_machine_steps_counted () =
  let m = Machine.create () in
  let a = Machine.alloc_shared m "a" (i 0) in
  Alcotest.(check int) "zero" 0 (Machine.steps m);
  ignore (Machine.apply m (Prim.Read a));
  ignore (Machine.apply m (Prim.Write (a, i 1)));
  ignore (Machine.apply m Prim.Yield);
  Alcotest.(check int) "three" 3 (Machine.steps m)

let test_machine_cas_faa_results () =
  let m = Machine.create () in
  let a = Machine.alloc_shared m "a" (i 0) in
  Alcotest.check v "cas true" (Value.Bool true)
    (Machine.apply m (Prim.Cas (a, i 0, i 1)));
  Alcotest.check v "cas false" (Value.Bool false)
    (Machine.apply m (Prim.Cas (a, i 0, i 2)));
  Alcotest.check v "faa old" (i 1) (Machine.apply m (Prim.Faa (a, 3)))

(* --- Prim --- *)

let test_prim_touches () =
  let m = Machine.create () in
  let a = Machine.alloc_shared m "a" (i 0) in
  let p = Machine.alloc_private m ~pid:0 "p" (i 0) in
  Alcotest.(check bool) "read touches" true (Prim.touches (Prim.Read a) = Some a);
  Alcotest.(check bool) "fence touches nothing" true (Prim.touches Prim.Fence = None);
  Alcotest.(check bool) "yield touches nothing" true (Prim.touches Prim.Yield = None);
  Alcotest.(check bool) "shared write" true
    (Prim.is_shared_write (Prim.Write (a, i 1)));
  Alcotest.(check bool) "private write not shared" false
    (Prim.is_shared_write (Prim.Write (p, i 1)));
  Alcotest.(check bool) "shared cas" true
    (Prim.is_shared_write (Prim.Cas (a, i 0, i 1)));
  Alcotest.(check bool) "read not a write" false
    (Prim.is_shared_write (Prim.Read a))

let test_prim_pp () =
  let m = Machine.create () in
  let a = Machine.alloc_shared m "cell" (i 0) in
  let s = Format.asprintf "%a" Prim.pp (Prim.Cas (a, i 0, i 1)) in
  Alcotest.(check bool) "mentions the location" true
    (let contains hay needle =
       let nh = String.length hay and nn = String.length needle in
       let rec go k = k + nn <= nh && (String.sub hay k nn = needle || go (k + 1)) in
       go 0
     in
     contains s "cell")

(* --- Ann --- *)

let drive_fiber m f =
  let rec go () =
    match Fiber.status f with
    | Fiber.Pending req ->
        Fiber.resume f (Machine.apply m req);
        go ()
    | Fiber.Done x -> x
    | Fiber.Killed -> Alcotest.fail "killed"
  in
  go ()

(* the fiber-side protocol is Detectable.Base's; these pin what it
   leaves in the fields Ann allocates and what Ann.pending reads back *)
module Base = Detectable.Base

let test_ann_announce_pending () =
  let m = Machine.create () in
  let ctx = Base.make_ctx m ~n:1 in
  let ann = ctx.Base.ann.(0) in
  Alcotest.(check bool) "initially idle" true (Ann.pending m ann = None);
  let f =
    Fiber.start (fun () ->
        Base.std_announce ctx ~pid:0 (History.Spec.write_op (i 5));
        Value.Unit)
  in
  ignore (drive_fiber m f);
  (match Ann.pending m ann with
  | Some ("write", args) -> Alcotest.check v "args" (Value.Tup [| i 5 |]) args
  | _ -> Alcotest.fail "expected pending write");
  let f2 =
    Fiber.start (fun () ->
        Base.std_clear ctx ~pid:0;
        Value.Unit)
  in
  ignore (drive_fiber m f2);
  Alcotest.(check bool) "cleared" true (Ann.pending m ann = None)

let test_ann_announce_order () =
  (* the committing [op] write must come last: crash one step earlier
     leaves the announcement invisible *)
  let m = Machine.create () in
  let ctx = Base.make_ctx m ~n:1 in
  let f =
    Fiber.start (fun () ->
        Base.std_announce ctx ~pid:0 (History.Spec.write_op (i 5));
        Value.Unit)
  in
  (* apply exactly two of the three announce writes *)
  (match Fiber.status f with
  | Fiber.Pending req -> Fiber.resume f (Machine.apply m req)
  | _ -> Alcotest.fail "expected step");
  (match Fiber.status f with
  | Fiber.Pending req -> Fiber.resume f (Machine.apply m req)
  | _ -> Alcotest.fail "expected step");
  Fiber.kill f;
  Alcotest.(check bool) "half announcement invisible" true
    (Ann.pending m ctx.Base.ann.(0) = None)

let test_ann_fields () =
  let m = Machine.create () in
  let ctx = Base.make_ctx m ~n:2 in
  let f =
    Fiber.start (fun () ->
        Base.set_cp ctx ~pid:1 2;
        Base.set_resp ctx ~pid:1 (i 9);
        Value.pair
          (Value.Int (Base.get_cp ctx ~pid:1))
          (Base.get_resp ctx ~pid:1))
  in
  let out = drive_fiber m f in
  Alcotest.check v "cp and resp" (Value.pair (i 2) (i 9)) out

let suites =
  [
    ( "runtime.fiber",
      [
        Alcotest.test_case "no-step completion" `Quick
          test_fiber_completes_without_steps;
        Alcotest.test_case "suspend/resume" `Quick test_fiber_suspends_and_resumes;
        Alcotest.test_case "sequencing" `Quick test_fiber_sequence;
        Alcotest.test_case "kill" `Quick test_fiber_kill;
        Alcotest.test_case "resume after done rejected" `Quick
          test_fiber_resume_done_rejected;
        Alcotest.test_case "volatile locals lost" `Quick
          test_fiber_volatile_locals_lost;
      ] );
    ( "runtime.machine",
      [
        Alcotest.test_case "private cache: writes durable" `Quick
          test_machine_private_cache_persist_noop;
        Alcotest.test_case "shared cache: crash drops" `Quick
          test_machine_shared_cache_crash;
        Alcotest.test_case "shared cache: persist" `Quick
          test_machine_shared_cache_persist;
        Alcotest.test_case "fence" `Quick test_machine_fence;
        Alcotest.test_case "step counting" `Quick test_machine_steps_counted;
        Alcotest.test_case "cas/faa results" `Quick test_machine_cas_faa_results;
      ] );
    ( "runtime.prim",
      [
        Alcotest.test_case "touches / is_shared_write" `Quick test_prim_touches;
        Alcotest.test_case "pretty printing" `Quick test_prim_pp;
      ] );
    ( "runtime.ann",
      [
        Alcotest.test_case "announce/pending/clear" `Quick
          test_ann_announce_pending;
        Alcotest.test_case "commit-last ordering" `Quick test_ann_announce_order;
        Alcotest.test_case "cp/resp fields" `Quick test_ann_fields;
      ] );
  ]
