type flavor = Neg | Negneg | Bottom | Forall

let check flavor p =
  match flavor with
  | Neg -> Datalog.Ast.check_ndatalog_pos_heads p
  | Negneg -> Datalog.Ast.check_ndatalog p
  | Bottom -> Datalog.Ast.check_ndatalog_bottom p
  | Forall -> Datalog.Ast.check_ndatalog_forall p

let run flavor ~seed ?fuel p inst =
  check flavor p;
  Nd_eval.run ~seed ?fuel p inst

let effect flavor ?fuel p inst =
  check flavor p;
  Enumerate.effect ?fuel p inst
