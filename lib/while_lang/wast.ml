open Relational

type query = { formula : Fo.formula; vars : string list }

type stmt =
  | Assign of string * query
  | Cumulate of string * query
  | While_change of stmt list
  | While of Fo.formula * stmt list

type program = stmt list

let rec stmt_is_fixpoint = function
  | Assign _ -> false
  | Cumulate _ -> true
  | While_change body | While (_, body) -> List.for_all stmt_is_fixpoint body

let is_fixpoint p = List.for_all stmt_is_fixpoint p

let check p =
  let check_query r { formula; vars } =
    match
      List.filter (fun x -> not (List.mem x vars)) (Fo.free_vars formula)
    with
    | [] -> ()
    | missing ->
        invalid_arg
          (Printf.sprintf
             "While: free variable%s %s of the query assigned to %s %s not \
              output column%s"
             (if List.length missing = 1 then "" else "s")
             (String.concat ", " missing)
             r
             (if List.length missing = 1 then "is" else "are")
             (if List.length missing = 1 then "" else "s"))
  in
  let rec go = function
    | Assign (r, q) | Cumulate (r, q) -> check_query r q
    | While_change body -> List.iter go body
    | While (cond, body) ->
        (match Fo.free_vars cond with
        | [] -> ()
        | fv ->
            invalid_arg
              (Printf.sprintf "While: loop condition has free variable%s %s"
                 (if List.length fv = 1 then "" else "s")
                 (String.concat ", " fv)));
        List.iter go body
  in
  List.iter go p

let rec pp_stmt ppf = function
  | Assign (r, { formula; vars }) ->
      Format.fprintf ppf "%s(%s) := %a" r (String.concat ", " vars) Fo.pp
        formula
  | Cumulate (r, { formula; vars }) ->
      Format.fprintf ppf "%s(%s) += %a" r (String.concat ", " vars) Fo.pp
        formula
  | While_change body ->
      Format.fprintf ppf "@[<v 2>while change do@,%a@]@,od" pp_body body
  | While (cond, body) ->
      Format.fprintf ppf "@[<v 2>while %a do@,%a@]@,od" Fo.pp cond pp_body
        body

and pp_body ppf body =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@,")
    pp_stmt ppf body

let pp ppf p = Format.fprintf ppf "@[<v>%a@]" pp_body p
