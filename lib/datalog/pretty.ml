open Relational

let is_upper_ident s =
  String.length s > 0
  && (match s.[0] with 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       s

let pp_value_term ppf v =
  Format.pp_print_string ppf (Value.to_string_in Value.Term v)

let pp_term ppf (t : Ast.term) =
  match t with
  | Ast.Var x when is_upper_ident x -> Format.pp_print_string ppf x
  | Ast.Var x -> Format.fprintf ppf "?%s" x
  | Ast.Cst v -> pp_value_term ppf v

let pp_atom ppf (a : Ast.atom) =
  match a.Ast.args with
  | [] -> Format.fprintf ppf "%s()" a.Ast.pred
  | args ->
      Format.fprintf ppf "%s(%a)" a.Ast.pred
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           pp_term)
        args

let pp_hlit ppf = function
  | Ast.HPos a -> pp_atom ppf a
  | Ast.HNeg a -> Format.fprintf ppf "!%a" pp_atom a
  | Ast.HBottom -> Format.pp_print_string ppf "bottom"

let pp_blit ppf = function
  | Ast.BPos a -> pp_atom ppf a
  | Ast.BNeg a -> Format.fprintf ppf "!%a" pp_atom a
  | Ast.BEq (s, t) -> Format.fprintf ppf "%a = %a" pp_term s pp_term t
  | Ast.BNeq (s, t) -> Format.fprintf ppf "%a != %a" pp_term s pp_term t

let pp_var_list ppf xs =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    (fun ppf x -> pp_term ppf (Ast.Var x))
    ppf xs

let pp_rule ppf (r : Ast.rule) =
  let pp_heads ppf =
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
      pp_hlit ppf
  in
  let pp_body ppf =
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
      pp_blit ppf
  in
  match (r.Ast.body, r.Ast.forall) with
  | [], [] -> Format.fprintf ppf "%a." pp_heads r.Ast.head
  | body, [] ->
      Format.fprintf ppf "%a :- %a." pp_heads r.Ast.head pp_body body
  | body, vars ->
      Format.fprintf ppf "%a :- forall %a : %a." pp_heads r.Ast.head
        pp_var_list vars pp_body body

let pp_program ppf (p : Ast.program) =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_cut ppf ())
    pp_rule ppf p

let program_to_string p = Format.asprintf "@[<v>%a@]" pp_program p
let rule_to_string r = Format.asprintf "%a" pp_rule r

let pp_fact ppf (pred, tup) =
  Format.pp_print_string ppf (Tuple.fact_to_string Value.Term pred tup)
