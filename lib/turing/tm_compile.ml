open Relational
module Ast = Datalog.Ast

let state_pred = "state"
let head_pred = "head"
let tape_pred = "tape"
let tsucc_pred = "tsucc"
let tstep_pred = "tstep"
let accepted_pred = "accepted"
let rejected_pred = "rejected"
let final_tape_pred = "final_tape"
let has_succ_pred = "has_succ"
let has_pred_pred = "has_pred"

(* constants *)
let qc q = Ast.cst (Value.Sym ("q:" ^ q))
let sc s = Ast.cst (Value.Sym ("s:" ^ s))
let pos_value i = Value.Sym (Printf.sprintf "p%d" i)
let t0 = Value.Sym "t0"

let v = Ast.var
let a = Ast.atom

let compile (m : Tm.t) : Ast.program =
  let rules = ref [] in
  let add r = rules := r :: !rules in
  (* bookkeeping rules *)
  add (Ast.rule (a has_succ_pred [ v "P" ]) [ Ast.BPos (a tsucc_pred [ v "P"; v "P2" ]) ]);
  add (Ast.rule (a has_pred_pred [ v "P" ]) [ Ast.BPos (a tsucc_pred [ v "P2"; v "P" ]) ]);
  add
    (Ast.rule (a accepted_pred [])
       [ Ast.BPos (a state_pred [ v "T"; qc m.Tm.accept ]) ]);
  add
    (Ast.rule (a rejected_pred [])
       [ Ast.BPos (a state_pred [ v "T"; qc m.Tm.reject ]) ]);
  add
    (Ast.rule
       (a final_tape_pred [ v "P"; v "S" ])
       [
         Ast.BPos (a state_pred [ v "T"; qc m.Tm.accept ]);
         Ast.BPos (a tape_pred [ v "T"; v "P"; v "S" ]);
       ]);
  (* one rule group per transition *)
  let k = ref 0 in
  List.iter
    (fun q ->
      if q <> m.Tm.accept && q <> m.Tm.reject then
        List.iter
          (fun s ->
            match m.Tm.delta (q, s) with
            | None -> ()
            | Some { Tm.write; move; next } ->
                incr k;
                let trans = Printf.sprintf "trans%d" !k in
                let trans_atom = a trans [ v "T"; v "T2"; v "P" ] in
                (* fire the transition, inventing the new time point T2 *)
                add
                  (Ast.rule trans_atom
                     [
                       Ast.BPos (a state_pred [ v "T"; qc q ]);
                       Ast.BPos (a head_pred [ v "T"; v "P" ]);
                       Ast.BPos (a tape_pred [ v "T"; v "P"; sc s ]);
                     ]);
                add
                  (Ast.rule (a state_pred [ v "T2"; qc next ])
                     [ Ast.BPos trans_atom ]);
                add
                  (Ast.rule (a tape_pred [ v "T2"; v "P"; sc write ])
                     [ Ast.BPos trans_atom ]);
                add
                  (Ast.rule (a tstep_pred [ v "T"; v "T2" ])
                     [ Ast.BPos trans_atom ]);
                (* copy the rest of the tape *)
                add
                  (Ast.rule
                     (a tape_pred [ v "T2"; v "P2"; v "S" ])
                     [
                       Ast.BPos trans_atom;
                       Ast.BPos (a tape_pred [ v "T"; v "P2"; v "S" ]);
                       Ast.BNeg (a head_pred [ v "T"; v "P2" ]);
                     ]);
                (* head movement, with tape extension at the frontier *)
                (match move with
                | Tm.Stay ->
                    add
                      (Ast.rule (a head_pred [ v "T2"; v "P" ])
                         [ Ast.BPos trans_atom ])
                | Tm.Right ->
                    add
                      (Ast.rule (a head_pred [ v "T2"; v "P2" ])
                         [
                           Ast.BPos trans_atom;
                           Ast.BPos (a tsucc_pred [ v "P"; v "P2" ]);
                         ]);
                    let newcell = Printf.sprintf "newcellR%d" !k in
                    add
                      (Ast.rule
                         (a newcell [ v "T2"; v "P"; v "P3" ])
                         [
                           Ast.BPos trans_atom;
                           Ast.BNeg (a has_succ_pred [ v "P" ]);
                         ]);
                    add
                      (Ast.rule (a tsucc_pred [ v "P"; v "P3" ])
                         [ Ast.BPos (a newcell [ v "T2"; v "P"; v "P3" ]) ]);
                    add
                      (Ast.rule
                         (a tape_pred [ v "T2"; v "P3"; sc m.Tm.blank ])
                         [ Ast.BPos (a newcell [ v "T2"; v "P"; v "P3" ]) ])
                | Tm.Left ->
                    add
                      (Ast.rule (a head_pred [ v "T2"; v "P2" ])
                         [
                           Ast.BPos trans_atom;
                           Ast.BPos (a tsucc_pred [ v "P2"; v "P" ]);
                         ]);
                    let newcell = Printf.sprintf "newcellL%d" !k in
                    add
                      (Ast.rule
                         (a newcell [ v "T2"; v "P"; v "P3" ])
                         [
                           Ast.BPos trans_atom;
                           Ast.BNeg (a has_pred_pred [ v "P" ]);
                         ]);
                    add
                      (Ast.rule (a tsucc_pred [ v "P3"; v "P" ])
                         [ Ast.BPos (a newcell [ v "T2"; v "P"; v "P3" ]) ]);
                    add
                      (Ast.rule
                         (a tape_pred [ v "T2"; v "P3"; sc m.Tm.blank ])
                         [ Ast.BPos (a newcell [ v "T2"; v "P"; v "P3" ]) ])))
          m.Tm.symbols)
    m.Tm.states;
  List.rev !rules

let initial_instance (m : Tm.t) input =
  let input = if input = [] then [ m.Tm.blank ] else input in
  let n = List.length input in
  let tape_rows =
    List.mapi (fun i s -> [ t0; pos_value i; Value.Sym ("s:" ^ s) ]) input
  in
  let succ_rows =
    List.init (n - 1) (fun i -> [ pos_value i; pos_value (i + 1) ])
  in
  Instance.of_list
    [
      (state_pred, [ [ t0; Value.Sym ("q:" ^ m.Tm.start) ] ]);
      (head_pred, [ [ t0; pos_value 0 ] ]);
      (tape_pred, tape_rows);
      (tsucc_pred, succ_rows);
    ]

type sim_result = {
  accepted : bool;
  rejected : bool;
  steps : int;
  invented : int;
  stages : int;
  final_tape : (string * string) list;
}

let decode_sym (v : Value.t) =
  match v with
  | Value.Sym s when String.length s > 2 && String.sub s 0 2 = "s:" ->
      String.sub s 2 (String.length s - 2)
  | other -> Value.to_string other

let simulate ?(fuel = 100_000) (m : Tm.t) input =
  let program = compile m in
  let inst = initial_instance m input in
  let { Datalog.Invent.instance; stages; invented } =
    Datalog.Invent.run ~fuel program inst
  in
  let has p = not (Relation.is_empty (Instance.find p instance)) in
  let final_tape =
    if not (has accepted_pred) then []
    else
      (* order cells by walking the tsucc chain from the leftmost *)
      let tsucc =
        Relation.fold
          (fun t acc -> (Tuple.get t 0, Tuple.get t 1) :: acc)
          (Instance.find tsucc_pred instance)
          []
      in
      let cells =
        Relation.fold
          (fun t acc ->
            let p = Tuple.get t 0 and s = Tuple.get t 1 in
            (p, s) :: acc)
          (Instance.find final_tape_pred instance)
          []
      in
      let has_predecessor p =
        List.exists (fun (_, q) -> Value.equal q p) tsucc
      in
      let start =
        List.find_opt (fun (p, _) -> not (has_predecessor p)) cells
      in
      let rec walk p acc fuel =
        if fuel <= 0 then acc
        else
          let acc =
            match
              List.find_opt (fun (q, _) -> Value.equal q p) cells
            with
            | Some (_, s) -> (Value.to_string p, decode_sym s) :: acc
            | None -> acc
          in
          match
            List.find_opt (fun (q, _) -> Value.equal q p) tsucc
          with
          | Some (_, p') -> walk p' acc (fuel - 1)
          | None -> acc
      in
      (match start with
      | None -> []
      | Some (p0, _) -> List.rev (walk p0 [] (List.length tsucc + 2)))
  in
  {
    accepted = has accepted_pred;
    rejected = has rejected_pred;
    steps = Relation.cardinal (Instance.find tstep_pred instance);
    invented;
    stages;
    final_tape;
  }

let agrees_with_reference ?(fuel = 10_000) (m : Tm.t) input =
  let reference = Tm.run ~fuel m input in
  let sim = simulate ~fuel:(20 * fuel) m input in
  match reference with
  | Tm.Accepted { final; _ } ->
      sim.accepted
      && (not sim.rejected)
      &&
      (* compare non-blank tape contents *)
      let ref_tape =
        List.filter (fun (_, s) -> s <> m.Tm.blank) final.Tm.tape
        |> List.map snd
      in
      let sim_tape =
        List.filter (fun (_, s) -> s <> m.Tm.blank) sim.final_tape
        |> List.map snd
      in
      ref_tape = sim_tape
  | Tm.Rejected _ -> not sim.accepted
  | Tm.Ran_out_of_fuel _ -> true (* nothing to compare *)
