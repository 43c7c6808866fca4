open History

type row = {
  label : string;
  mk : unit -> Runtime.Machine.t * Sched.Obj_inst.t;
  workloads : Spec.op list array;
  expect_violation : bool;
}

let rows () =
  let reg_attack = Perturb.Witnesses.register.Perturb.Witnesses.attack in
  let cas_attack = Perturb.Witnesses.cas.Perturb.Witnesses.attack in
  let max_attack = (Objects.attack (Objects.find "dmax")).Perturb.Witnesses.attack in
  [
    {
      label = "register, no aux state, recovery=fail";
      mk = Objects.(mk (find "broken-rw-refail")) ~n:2;
      workloads = reg_attack;
      expect_violation = true;
    };
    {
      label = "register, no aux state, recovery=re-execute";
      mk = Objects.(mk (find "broken-rw-reexec")) ~n:2;
      workloads = reg_attack;
      expect_violation = true;
    };
    {
      label = "register, Algorithm 1 (aux via Ann)";
      mk = Objects.(mk (find "drw")) ~n:2;
      workloads = reg_attack;
      expect_violation = false;
    };
    {
      label = "register, unbounded tags (aux via Ann)";
      mk = Objects.(mk (find "urw")) ~n:2;
      workloads = reg_attack;
      expect_violation = false;
    };
    {
      label = "cas, Algorithm 2 (aux via Ann)";
      mk = Objects.(mk (find "dcas")) ~n:2;
      workloads = cas_attack;
      expect_violation = false;
    };
    {
      label = "max register, Algorithm 3 (NO aux state)";
      mk = Objects.(mk (find "dmax")) ~n:2;
      workloads = max_attack;
      expect_violation = false;
    };
  ]

(* the cells of a row and whether it is as predicted *)
let run_row r =
  let reports =
    Perturb.Adversary.attack ~mk:r.mk ~workloads:r.workloads ~switch_budget:2 ()
  in
  let violated = not (Perturb.Adversary.survives reports) in
  let verdict v = if v then "violation" else "clean" in
  ( [ r.label; verdict r.expect_violation; verdict violated ],
    violated = r.expect_violation )

let table () =
  Common.predicted_table ~title:"E3 (Fig.2/Thm.2): the auxiliary-state adversary"
    [ "implementation"; "theory predicts"; "adversary found" ]
    (List.map run_row (rows ()))

let all_as_predicted () = List.for_all snd (List.map run_row (rows ()))
