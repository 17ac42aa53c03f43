(* datalog-unchained: command-line front end for the whole language
   family. *)
open Relational
open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_program path =
  try Datalog.Parser.parse (read_file path) with
  | Datalog.Parser.Parse_error (line, msg) ->
      Printf.eprintf "%s:%d: parse error: %s\n" path line msg;
      exit 2
  | Datalog.Lexer.Lex_error (line, msg) ->
      Printf.eprintf "%s:%d: lex error: %s\n" path line msg;
      exit 2

let load_text ?select path text =
  try Instance.parse_facts ?select text
  with Failure msg ->
    Printf.eprintf "%s: %s\n" path msg;
    exit 2

let load_facts = function
  | None -> Instance.empty
  | Some path -> load_text path (read_file path)

(* --- answer output ---------------------------------------------------------

   Answers are rendered into one buffer that goes to stdout whenever it
   holds [chunk] bytes and when a printer ends. Format's own queue is
   flushed first, so the comment lines printed through Format keep
   their place. A full instance prints in the fact-file dialect (it
   reloads with -f); -a, query and fo answers in the program-term
   dialect. *)
let chunk = 65536
let out = Buffer.create chunk
let out_facts = ref 0
let out_bytes = ref 0

let drain () =
  Format.pp_print_flush Format.std_formatter ();
  out_bytes := !out_bytes + Buffer.length out;
  Buffer.output_buffer stdout out;
  Buffer.clear out

(* one fact line, with an optional trailing [% comment] *)
let emit ?comment dialect pred t =
  Tuple.render_fact dialect out pred t;
  Option.iter
    (fun c ->
      Buffer.add_string out " % ";
      Buffer.add_string out c)
    comment;
  Buffer.add_char out '\n';
  incr out_facts;
  if Buffer.length out >= chunk then drain ()

(* [printing ~trace f] runs the printer [f] and sends its output to
   stdout, under a [print] span closing with the facts and bytes it
   wrote *)
let printing ?(trace = Observe.Trace.null) f =
  Observe.Trace.open_span trace ~kind:"print" "print";
  let facts0 = !out_facts and bytes0 = !out_bytes in
  f ();
  drain ();
  flush stdout;
  Observe.Trace.close_span trace
    ~fields:
      [
        Observe.Trace.fint "facts" (!out_facts - facts0);
        Observe.Trace.fint "bytes" (!out_bytes - bytes0);
      ]
    ()

(* the full instance: fact lines, and one empty line when it has none *)
let print_instance ?trace inst =
  printing ?trace (fun () ->
      let facts0 = !out_facts in
      Instance.iter_facts (emit Value.Fact) inst;
      if !out_facts = facts0 then Buffer.add_char out '\n')

let print_facts ?trace pred rel =
  printing ?trace (fun () -> Relation.iter (emit Value.Term pred) rel)

let print_answer ?trace inst = function
  | None -> print_instance ?trace inst
  | Some pred -> print_facts ?trace pred (Instance.find pred inst)

(* --- arguments ---------------------------------------------------------- *)

let program_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"PROGRAM" ~doc:"Datalog program file (.dl)")

let facts_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "facts"; "f" ] ~docv:"FILE" ~doc:"EDB facts file")

let answer_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "answer"; "a" ] ~docv:"PRED"
        ~doc:"Print only this predicate's relation")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed")

let annot_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "annot" ] ~docv:"SEMIRING"
        ~doc:
          "Annotate every fact over a commutative semiring: $(b,bool) (the \
           plain set semantics), $(b,count) (number of derivation trees; \
           $(b,inf) for facts on or fed by a derivation cycle), \
           $(b,minplus) (weight of the cheapest derivation; the last \
           integer column of a base fact is its weight), $(b,why) \
           (why-provenance polynomials over base-fact labels). Output \
           facts carry their annotation as a trailing '%' comment. \
           Requires the positive Datalog fragment")

(* plain-string validation so an unknown semiring exits 2 with the list
   of valid names (Arg.enum would exit 124) *)
let parse_annot = function
  | None -> None
  | Some s -> (
      match Semiring.of_string s with
      | Ok tag -> Some tag
      | Error msg ->
          Printf.eprintf "--annot: %s\n" msg;
          exit 2)

let emit_annotated r pred t =
  emit Value.Term pred t
    ~comment:(Semiring.to_string (Datalog.Annot_eval.annotation r pred t))

let print_annotated ?trace r pred rel =
  printing ?trace (fun () -> Relation.iter (emit_annotated r pred) rel)

let print_annot_answer ~trace (r : Datalog.Annot_eval.t) = function
  | Some pred ->
      print_annotated ~trace r pred
        (Instance.find pred r.Datalog.Annot_eval.instance)
  | None ->
      printing ~trace (fun () ->
          Instance.iter_facts (emit_annotated r) r.Datalog.Annot_eval.instance)

let order_arg =
  Arg.(
    value & flag
    & info [ "ordered" ]
        ~doc:"Adjoin succ/lt/first/last order relations over the active \
              domain before evaluation (Theorem 4.7/4.8 experiments)")

let semantics_conv =
  Arg.enum
    [
      ("naive", `Naive);
      ("seminaive", `Seminaive);
      ("stratified", `Stratified);
      ("semipositive", `Semipositive);
      ("inflationary", `Inflationary);
      ("noninflationary", `Noninflationary);
      ("wellfounded", `Wellfounded);
      ("stable", `Stable);
      ("invent", `Invent);
    ]

let semantics_arg =
  Arg.(
    value
    & opt semantics_conv `Seminaive
    & info [ "semantics"; "s" ] ~docv:"SEM"
        ~doc:
          "Evaluation semantics: $(b,naive), $(b,seminaive), \
           $(b,stratified), $(b,semipositive), $(b,inflationary), \
           $(b,noninflationary), $(b,wellfounded), $(b,stable), \
           $(b,invent)")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Evaluate with $(docv) parallel domains: per-round rule \
           instantiations (and independent strata) are partitioned across \
           a fixed domain pool. Results are identical to sequential \
           evaluation; $(docv) = 1 (the default) runs the sequential \
           engine unchanged")

let set_jobs jobs =
  if jobs < 1 then (
    Printf.eprintf "jobs must be >= 1\n";
    exit 2);
  Parallel.Pool.set_jobs jobs

(* --- observability ------------------------------------------------------ *)

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "After evaluation, print a run report to stdout: span hierarchy \
           with timings, per-round delta sizes, rule firing counts and \
           index/join ratios")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a JSON-lines trace of the run to $(docv) (span_open / \
           span_close / event / summary lines; see lib/observe)")

(* Build the trace context the flags ask for, run [f] inside a "run" span,
   then flush. The report (intern counters, the trace's summary line, the
   --stats summary) is written whether [f] returns or raises: on an
   exception [Trace.finish] closes the open spans, marked aborted, and
   the exception is re-raised for [or_reject] to report. The JSONL file
   is closed either way. [force] creates an enabled context even without
   --stats/--trace (serve's stats op reads its counters) but prints
   nothing extra. *)
let with_observability ~name ?(force = false) stats trace_path f =
  if (not stats) && (not force) && trace_path = None then f Observe.Trace.null
  else
    let oc, sinks =
      match trace_path with
      | None -> (None, [])
      | Some path -> (
          try
            let oc = open_out path in
            ( Some oc,
              [
                Observe.Report.jsonl_sink ~write:(fun line ->
                    output_string oc line;
                    output_char oc '\n');
              ] )
          with Sys_error msg ->
            Printf.eprintf "cannot open trace file: %s\n" msg;
            exit 2)
    in
    let ctx = Observe.Trace.make ~sinks () in
    let report () =
      (* intern table health: distinct values interned by the process
         (parsing included) and how many [Intern.id] calls resolved to an
         existing entry — the sharing the dense-id representation buys *)
      Observe.Trace.add ctx "intern.values" (Value.Intern.size ());
      Observe.Trace.add ctx "intern.hits" (Value.Intern.hits ());
      Observe.Trace.finish ctx;
      if stats then Format.printf "%a" Observe.Report.pp_summary ctx
    in
    Fun.protect
      ~finally:(fun () -> Option.iter close_out_noerr oc)
      (fun () ->
        Observe.Trace.open_span ctx ~kind:"run" name;
        match f ctx with
        | r ->
            Observe.Trace.close_span ctx ();
            report ();
            r
        | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            report ();
            Printexc.raise_with_backtrace e bt)

(* An engine rejects a program outside its fragment with an exception;
   [or_reject f] reports it like the other usage errors — the message on
   stderr, exit 2 — instead of letting it escape as an internal error.
   An engine that can diverge and ran out of fuel exits 3. *)
let or_reject f =
  try f () with
  | Datalog.Ast.Check_error msg
  | Datalog.Stratified.Not_stratifiable msg
  | Datalog.Semipositive.Not_semipositive msg
  | Datalog.Annot_eval.Unsupported msg
  | Failure msg ->
      Printf.eprintf "%s\n" msg;
      exit 2
  | Fuel.Exhausted { engine; budget; _ } ->
      Printf.eprintf "%s: out of fuel (budget %d)\n" engine budget;
      exit 3

(* Every loaded fact must have its predicate's arity in the program:
   a mismatch is an input fault (exit 2 through [or_reject]), found
   before anything evaluates. *)
let check_facts p inst =
  Datalog.Ast.check_facts (Datalog.Ast.infer_schema p) inst

(* --- run ---------------------------------------------------------------- *)

let semantics_name = function
  | `Naive -> "naive"
  | `Seminaive -> "seminaive"
  | `Stratified -> "stratified"
  | `Semipositive -> "semipositive"
  | `Inflationary -> "inflationary"
  | `Noninflationary -> "noninflationary"
  | `Wellfounded -> "wellfounded"
  | `Stable -> "stable"
  | `Invent -> "invent"

let run_cmd =
  let run semantics program facts answer ordered annot stats trace_path jobs =
    set_jobs jobs;
    let annot = parse_annot annot in
    let name =
      match annot with Some _ -> "annot" | None -> semantics_name semantics
    in
    or_reject @@ fun () ->
    with_observability ~name stats trace_path @@ fun trace ->
    (* loading is part of the run: the program parse and the fact load
       are spans of their own *)
    let { Datalog.Parser.program = p; _ } =
      Observe.Trace.with_span trace ~kind:"parse" program (fun () ->
          load_program program)
    in
    (* With -a, the load drops the facts no body atom can read: they
       cannot reach the answer (DESIGN.md, section 3). Not when the run
       reads the active domain, to which every fact adds (--ordered, a
       rule that needs it, invent), nor when a rule may delete an input
       fact (noninflationary); stable and --annot runs are not under
       test_select's oracle. *)
    let select =
      match (answer, annot, semantics) with
      | ( Some keep,
          None,
          ( `Naive | `Seminaive | `Stratified | `Semipositive | `Inflationary
          | `Wellfounded ) )
        when not ordered ->
          Datalog.Eval_util.fact_selection p ~keep
      | _ -> None
    in
    let inst =
      (* the span closes with the input bytes and the facts they held,
         so --stats reads ns per byte *)
      Observe.Trace.open_span trace ~kind:"load" "facts";
      let text, inst =
        match facts with
        | None -> ("", Instance.empty)
        | Some path ->
            let text = read_file path in
            (text, load_text ?select path text)
      in
      Option.iter
        (fun sel ->
          let n = Instance.Select.dropped sel in
          if n > 0 then Observe.Trace.add trace "load.dropped" n)
        select;
      let loaded = if ordered then Order.adjoin inst else inst in
      Observe.Trace.close_span trace
        ~fields:
          [
            Observe.Trace.fint "bytes" (String.length text);
            Observe.Trace.fint "facts" (Instance.total_facts inst);
          ]
        ();
      check_facts p inst;
      loaded
    in
    match annot with
    | Some tag ->
        if semantics <> `Seminaive then (
          Printf.eprintf
            "--annot requires the default seminaive semantics\n";
          exit 2);
        print_annot_answer ~trace
          (Datalog.Annot_eval.run ~trace tag p inst)
          answer
    | None -> (
        match semantics with
        | `Naive ->
            print_answer ~trace
              (Datalog.Naive.eval ~trace p inst).Datalog.Naive.instance answer
        | `Seminaive ->
            print_answer ~trace
              (Datalog.Seminaive.eval ~trace p inst).Datalog.Seminaive.instance
              answer
        | `Stratified ->
            print_answer ~trace
              (Datalog.Stratified.eval ~trace p inst).Datalog.Stratified.instance
              answer
        | `Semipositive ->
            print_answer ~trace
              (Datalog.Semipositive.eval ~trace p inst)
                .Datalog.Semipositive.instance answer
        | `Inflationary ->
            print_answer ~trace
              (Datalog.Inflationary.eval ~trace p inst)
                .Datalog.Inflationary.instance answer
        | `Noninflationary -> (
            match Datalog.Noninflationary.run ~trace p inst with
            | Datalog.Noninflationary.Fixpoint { instance; stages } ->
                Format.printf "%% fixpoint after %d stages@." stages;
                print_answer ~trace instance answer
            | Datalog.Noninflationary.Diverged { period; entered; _ } ->
                Format.printf
                  "%% diverges: cycle of period %d entered at stage %d@." period
                  entered
            | Datalog.Noninflationary.Contradiction { pred; stage; _ } ->
                Format.printf "%% contradiction on %s at stage %d@." pred stage)
        | `Wellfounded ->
            let res = Datalog.Wellfounded.eval ~trace p inst in
            Format.printf "%% true facts:@.";
            print_answer ~trace res.Datalog.Wellfounded.true_facts answer;
            let unk = Datalog.Wellfounded.unknown res in
            if Instance.total_facts unk > 0 then (
              Format.printf "%% unknown facts:@.";
              print_answer ~trace unk answer)
        | `Stable ->
            let models = Datalog.Stable.models ~trace p inst in
            Format.printf "%% %d stable model(s)@." (List.length models);
            List.iteri
              (fun i m ->
                Format.printf "%% model %d:@." (i + 1);
                print_answer ~trace m answer)
              models
        | `Invent ->
            let { Datalog.Invent.instance; stages; invented } =
              Datalog.Invent.run ~trace p inst
            in
            Format.printf "%% fixpoint after %d stages, %d invented values@."
              stages invented;
            print_answer ~trace instance answer)
  in
  let doc =
    "Evaluate a program under a chosen semantics and print the whole \
     result instance, or with $(b,-a) one predicate's relation; either \
     output reloads with $(b,-f). To answer a point query without \
     materializing the fixpoint, use $(b,query)"
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ semantics_arg $ program_arg $ facts_arg $ answer_arg
      $ order_arg $ annot_arg $ stats_arg $ trace_arg $ jobs_arg)

(* --- nondet ------------------------------------------------------------- *)

let nondet_cmd =
  let mode_conv =
    Arg.enum
      [ ("walk", `Walk); ("enumerate", `Enumerate); ("poss", `Poss); ("cert", `Cert) ]
  in
  let mode_arg =
    Arg.(
      value & opt mode_conv `Walk
      & info [ "mode"; "m" ]
          ~doc:
            "$(b,walk) one random terminal instance, $(b,enumerate) the \
             whole effect relation, $(b,poss)/$(b,cert) the possibility / \
             certainty semantics")
  in
  let run mode program facts answer seed stats trace_path =
    let { Datalog.Parser.program = p; _ } = load_program program in
    or_reject @@ fun () ->
    Datalog.Ast.check_ndatalog_any p;
    let inst = load_facts facts in
    check_facts p inst;
    let name =
      match mode with
      | `Walk -> "nondet.walk"
      | `Enumerate -> "nondet.enumerate"
      | `Poss -> "nondet.poss"
      | `Cert -> "nondet.cert"
    in
    with_observability ~name stats trace_path (fun trace ->
        match mode with
        | `Walk -> (
            match Nondet.Nd_eval.run ~seed ~trace p inst with
            | Nondet.Nd_eval.Terminal { instance; steps } ->
                Format.printf "%% terminal after %d firings@." steps;
                print_answer instance answer
            | Nondet.Nd_eval.Abandoned { steps } ->
                Format.printf "%% abandoned (\xe2\x8a\xa5) after %d firings@."
                  steps)
        | `Enumerate ->
            let stats = Nondet.Enumerate.effect p inst in
            Format.printf "%% %d terminal instance(s), %d states explored@."
              (List.length stats.Nondet.Enumerate.terminals)
              stats.Nondet.Enumerate.explored;
            List.iteri
              (fun i j ->
                Format.printf "%% outcome %d:@." (i + 1);
                print_answer j answer)
              stats.Nondet.Enumerate.terminals
        | `Poss -> print_answer (Nondet.Posscert.poss p inst) answer
        | `Cert -> print_answer (Nondet.Posscert.cert p inst) answer)
  in
  let doc = "Evaluate a nondeterministic program (N-Datalog variants)" in
  Cmd.v (Cmd.info "nondet" ~doc)
    Term.(
      const run $ mode_arg $ program_arg $ facts_arg $ answer_arg $ seed_arg
      $ stats_arg $ trace_arg)

(* --- stratify / deps / check ------------------------------------------- *)

let stratify_cmd =
  let run program =
    let { Datalog.Parser.program = p; _ } = load_program program in
    match or_reject (fun () -> Datalog.Stratify.stratify p) with
    | Error msg ->
        Format.printf "%s@." msg;
        exit 1
    | Ok s ->
        List.iteri
          (fun i stratum ->
            if stratum <> [] then (
              Format.printf "%% stratum %d:@." i;
              List.iter
                (fun r -> Format.printf "%s@." (Datalog.Pretty.rule_to_string r))
                stratum))
          s.Datalog.Stratify.strata
  in
  let doc = "Print the stratification of a Datalog¬ program" in
  Cmd.v (Cmd.info "stratify" ~doc) Term.(const run $ program_arg)

let deps_cmd =
  let run program =
    let { Datalog.Parser.program = p; _ } = load_program program in
    Format.printf "%a@." Datalog.Depgraph.pp_dot p
  in
  let doc = "Print the predicate dependency graph in Graphviz format" in
  Cmd.v (Cmd.info "deps" ~doc) Term.(const run $ program_arg)

let check_cmd =
  let lang_conv =
    Arg.enum
      [
        ("datalog", `Datalog);
        ("datalog-neg", `Neg);
        ("datalog-negneg", `Negneg);
        ("datalog-new", `New);
        ("ndatalog", `Nd);
        ("ndatalog-bottom", `NdBottom);
        ("ndatalog-forall", `NdForall);
      ]
  in
  let lang_arg =
    Arg.(
      value & opt lang_conv `Neg
      & info [ "language"; "l" ] ~doc:"Fragment to validate against")
  in
  let run lang program =
    let { Datalog.Parser.program = p; _ } = load_program program in
    let check =
      match lang with
      | `Datalog -> Datalog.Ast.check_datalog
      | `Neg -> Datalog.Ast.check_datalog_neg
      | `Negneg -> Datalog.Ast.check_datalog_negneg
      | `New -> Datalog.Ast.check_invent
      | `Nd -> Datalog.Ast.check_ndatalog
      | `NdBottom -> Datalog.Ast.check_ndatalog_bottom
      | `NdForall -> Datalog.Ast.check_ndatalog_forall
    in
    match check p with
    | () -> Format.printf "ok@."
    | exception Datalog.Ast.Check_error msg ->
        Format.printf "invalid: %s@." msg;
        exit 1
  in
  let doc = "Validate a program against a language fragment" in
  Cmd.v (Cmd.info "check" ~doc) Term.(const run $ lang_arg $ program_arg)

let parse_query_atom s =
  try Datalog.Parser.parse_atom s with
  | Datalog.Parser.Parse_error (_, msg) ->
      Printf.eprintf "query '%s': parse error: %s\n" s msg;
      exit 2
  | Datalog.Lexer.Lex_error (_, msg) ->
      Printf.eprintf "query '%s': lex error: %s\n" s msg;
      exit 2

let query_atom_arg =
  Arg.(
    value & opt_all string []
    & info [ "query"; "q" ] ~docv:"ATOM"
        ~doc:
          "Query atom, e.g. 'T(a, Y)' (repeatable; appended to the \
           program's ?- directives)")

let query_cmd =
  let run program facts query_args annot stats trace_path jobs =
    set_jobs jobs;
    let annot = parse_annot annot in
    let { Datalog.Parser.program = p; queries } = load_program program in
    let inst = load_facts facts in
    match queries @ List.map parse_query_atom query_args with
    | [] ->
        Printf.eprintf
          "no query: pass -q ATOM or add a ?- directive to the program\n";
        exit 2
    | qs -> (
        or_reject @@ fun () ->
        check_facts p inst;
        match annot with
        | Some tag ->
            (* annotated answers come from the materialized annotated
               fixpoint: the stored relation filtered as the magic path
               filters its answers. A query atom must have its
               predicate's arity, as the magic rewrite requires. *)
            let schema = Datalog.Ast.infer_schema p in
            List.iter
              (fun (q : Datalog.Ast.atom) ->
                match Schema.find q.Datalog.Ast.pred schema with
                | Some { Schema.arity; _ }
                  when arity <> List.length q.Datalog.Ast.args ->
                    raise
                      (Datalog.Ast.Check_error
                         (Printf.sprintf "query: %s has arity %d, query gives %d"
                            q.Datalog.Ast.pred arity
                            (List.length q.Datalog.Ast.args)))
                | _ -> ())
              qs;
            with_observability ~name:"annot" stats trace_path (fun trace ->
                let r = Datalog.Annot_eval.run ~trace tag p inst in
                List.iter
                  (fun (q : Datalog.Ast.atom) ->
                    let rel =
                      Instance.find q.Datalog.Ast.pred
                        r.Datalog.Annot_eval.instance
                    in
                    print_annotated r q.Datalog.Ast.pred
                      (match Datalog.Magic.query_filter ~keyed:false q with
                      | None -> rel
                      | Some ok -> Relation.filter ok rel))
                  qs)
        | None ->
            (* one session: later queries reuse the facts and indexes
               earlier ones derived *)
            with_observability ~name:"magic" stats trace_path (fun trace ->
                let s = Datalog.Magic.session ~trace p inst in
                List.iter
                  (fun q ->
                    print_facts q.Datalog.Ast.pred (Datalog.Magic.ask s q))
                  qs))
  in
  let doc =
    "Answer queries demand-driven: each query atom is answered by magic \
     sets (the program rewritten for the query's bound positions, then \
     evaluated semi-naively), so only the facts the query needs are \
     derived. All queries share one session, so a later query reuses \
     what earlier ones derived ($(b,magic.*) counters under \
     $(b,--stats)). With $(b,--annot), queries filter the annotated \
     fixpoint instead"
  in
  Cmd.v (Cmd.info "query" ~doc)
    Term.(
      const run $ program_arg $ facts_arg $ query_atom_arg $ annot_arg
      $ stats_arg $ trace_arg $ jobs_arg)

(* --- fo ------------------------------------------------------------------ *)

let fo_cmd =
  let query_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"QUERY"
          ~doc:
            "FO formula, e.g. 'exists Z (G(X, Z) & G(Z, Y))'. \
             Uppercase-initial identifiers are variables; connectives are \
             $(b,!) $(b,&) $(b,|) $(b,->) $(b,=) $(b,!=) $(b,exists) \
             $(b,forall) $(b,true) $(b,false)")
  in
  let vars_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "vars" ] ~docv:"X,Y"
          ~doc:
            "Output columns (comma-separated; default: the formula's free \
             variables in first-occurrence order)")
  in
  let explain_arg =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "After the answers, print the compiled plan as an annotated \
             operator tree: per executed operator, rows in/out, execution \
             count, selectivity and self/total wall time")
  in
  let naive_arg =
    Arg.(
      value & flag
      & info [ "naive" ]
          ~doc:
            "Evaluate with the naive active-domain enumerator instead of \
             the compiled algebra plan (reference oracle)")
  in
  let run query facts vars naive explain stats trace_path jobs =
    set_jobs jobs;
    let f =
      try Fo_parse.formula_of_string query
      with Fo_parse.Parse_error msg ->
        Printf.eprintf "query: %s\n" msg;
        exit 2
    in
    let inst = load_facts facts in
    let vars =
      match vars with
      | None -> Fo.free_vars f
      | Some s ->
          String.split_on_char ',' s |> List.map String.trim
          |> List.filter (fun v -> v <> "")
    in
    if explain && naive then (
      Printf.eprintf "--explain needs the compiled path (drop --naive)\n";
      exit 2);
    try
      with_observability ~name:"fo" stats trace_path
        (fun trace ->
          let profile = if explain then Some (Algebra.profile ()) else None in
          (match vars with
          | [] ->
              Format.printf "%b@."
                (if naive then Fo.sentence_naive inst f
                 else Fo.sentence ~trace ?profile inst f)
          | vs ->
              let r =
                if naive then Fo.eval_naive inst f vs
                else Fo.eval ~trace ?profile inst f vs
              in
              print_facts "ans" r);
          (* plans are memoized: recompiling returns the same physical
             plan the evaluation just profiled *)
          Option.iter
            (fun profile ->
              let plan = Fo.compile ~trace f vars in
              Format.printf "%% explain@.";
              print_string (Explain.text ~inst ~profile (Fo.plan_expr plan)))
            profile)
    with Invalid_argument msg ->
      Printf.eprintf "%s\n" msg;
      exit 2
  in
  let doc =
    "Answer a first-order (relational calculus) query over a facts file"
  in
  Cmd.v (Cmd.info "fo" ~doc)
    Term.(
      const run $ query_arg $ facts_arg $ vars_arg $ naive_arg $ explain_arg
      $ stats_arg $ trace_arg $ jobs_arg)

(* --- serve / client ----------------------------------------------------- *)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path")

let serve_cmd =
  let run program facts socket stats trace_path =
    let { Datalog.Parser.program = p; _ } = load_program program in
    let inst = load_facts facts in
    or_reject (fun () -> check_facts p inst);
    (* force an enabled context even without --stats: the protocol's
       [stats] op reports these counters over the socket *)
    with_observability ~name:"serve" ~force:true stats trace_path
      (fun trace ->
        try
          let engine = Server.Engine.create ~trace p inst in
          Server.Daemon.serve ~trace ~socket engine
        with Datalog.Ast.Check_error msg ->
          Printf.eprintf "serve requires pure Datalog: %s\n" msg;
          exit 2)
  in
  let doc =
    "Run a resident server: materialize the program's fixpoint once, then \
     maintain it incrementally (semi-naive insertion, delete-and-rederive \
     retraction) across line-JSON requests on a Unix-domain socket. \
     Requires pure Datalog. With $(b,--stats), print the run report \
     (request counters, per-command latency histograms, fixpoint and \
     maintenance counters) after shutdown"
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ program_arg $ facts_arg $ socket_arg $ stats_arg
      $ trace_arg)

let client_cmd =
  let command_arg =
    Arg.(
      required
      & pos 0
          (some
             (enum
                [
                  ("assert", `Assert);
                  ("retract", `Retract);
                  ("query", `Query);
                  ("stats", `Stats);
                  ("shutdown", `Shutdown);
                ]))
          None
      & info [] ~docv:"COMMAND"
          ~doc:"$(b,assert), $(b,retract), $(b,query), $(b,stats) or \
                $(b,shutdown)")
  in
  let payload_arg =
    Arg.(
      value
      & pos 1 (some string) None
      & info [] ~docv:"ARG"
          ~doc:"Facts text for assert/retract, query atom for query")
  in
  let via_arg =
    Arg.(
      value
      & opt
          (enum [ ("materialized", "materialized"); ("demand", "demand") ])
          "materialized"
      & info [ "via" ] ~docv:"PATH"
          ~doc:
            "Query path: $(b,materialized) (indexed lookup on the \
             maintained fixpoint) or $(b,demand) (magic sets over the \
             server's current base facts)")
  in
  let run socket command payload via =
    let need what =
      match payload with
      | Some a -> a
      | None ->
          Printf.eprintf "client: missing %s argument\n" what;
          exit 2
    in
    let req =
      match command with
      | `Assert -> Server.Protocol.Assert (need "facts")
      | `Retract -> Server.Protocol.Retract (need "facts")
      | `Query -> Server.Protocol.Query { atom = need "query atom"; via }
      | `Stats -> Server.Protocol.Stats
      | `Shutdown -> Server.Protocol.Shutdown
    in
    match Server.Client.request ~socket req with
    | Error msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 1
    | Ok j -> (
        let int_field name =
          match Observe.Json.member name j with
          | Some (Observe.Json.Int n) -> n
          | _ -> 0
        in
        match command with
        | `Assert ->
            Printf.printf "%% added %d, derived %d (%d stage(s))\n"
              (int_field "added") (int_field "derived") (int_field "stages")
        | `Retract ->
            Printf.printf "%% removed %d, overdeleted %d, rederived %d\n"
              (int_field "removed")
              (int_field "overdeleted")
              (int_field "rederived")
        | `Query -> (
            match Observe.Json.member "facts" j with
            | Some (Observe.Json.List fs) ->
                List.iter
                  (function
                    | Observe.Json.Str s -> print_endline s | _ -> ())
                  fs
            | _ -> ())
        | `Stats ->
            (match Observe.Json.member "counters" j with
            | Some (Observe.Json.Obj kvs) ->
                List.iter
                  (function
                    | k, Observe.Json.Int v -> Printf.printf "%s %d\n" k v
                    | _ -> ())
                  kvs
            | _ -> ());
            (match Observe.Json.member "histograms" j with
            | Some (Observe.Json.Obj kvs) ->
                List.iter
                  (fun (k, d) ->
                    let f name =
                      match Observe.Json.member name d with
                      | Some (Observe.Json.Int n) -> n
                      | _ -> 0
                    in
                    Printf.printf "%s n=%d p50_ns=%d p99_ns=%d\n" k (f "n")
                      (f "p50_ns") (f "p99_ns"))
                  kvs
            | _ -> ())
        | `Shutdown -> print_endline "% server stopped")
  in
  let doc =
    "Send one request to a resident $(b,serve) process and print the \
     response: derived/retraction deltas for updates, one fact per line \
     for queries, counter and histogram lines for stats"
  in
  Cmd.v (Cmd.info "client" ~doc)
    Term.(const run $ socket_arg $ command_arg $ payload_arg $ via_arg)

let main =
  let doc =
    "The Datalog Unchained language family: forward-chaining Datalog \
     engines (PODS 2021 Gems reproduction)"
  in
  Cmd.group (Cmd.info "datalog-unchained" ~version:"1.0.0" ~doc)
    [
      run_cmd;
      nondet_cmd;
      stratify_cmd;
      deps_cmd;
      check_cmd;
      query_cmd;
      fo_cmd;
      serve_cmd;
      client_cmd;
    ]

let () = exit (Cmd.eval main)
