(* Commutative semirings for annotated evaluation (PAPERS.md:
   "Revisiting Semiring Provenance for Datalog", arXiv 2202.10766).

   A Datalog fact is annotated with a value from a commutative semiring
   (K, ⊕, ⊗, 0, 1): alternative derivations combine with ⊕, the body
   facts of one rule firing combine with ⊗. Four instances ship:

   - [Bool]    — (bool, ∨, ∧): today's set semantics.
   - [Count]   — (ℕ∞, +, ×): derivation-tree multiplicities. Values
                 saturate to ω ([omega]) instead of overflowing; a fact
                 supported by a derivation cycle has infinitely many
                 trees and is ω by definition.
   - [MinPlus] — the tropical semiring (ℕ∞, min, +): the annotation of
                 a fact is the weight of its lightest derivation, which
                 on transitive closure over weighted edges is exactly
                 shortest-path distance (the paper's [closer] example).
                 [zero] is +∞ (no derivation); [bottom] (−∞) marks
                 facts whose weight diverges (a negative-weight cycle).
   - [Why]     — why-provenance: polynomials over the base facts,
                 truncated to at most [max_monomials] monomials of at
                 most [max_factors] base facts each (the [more] flag
                 records that the polynomial is a lower bound). Each
                 monomial is a *set* of base facts (x ⊗ x = x on
                 factors), so the polynomials form a finite — hence
                 terminating — domain.

   Annotation values are one universal type [v] rather than a functor
   parameter: the engines dispatch on the instance at run time (the CLI
   picks it from a flag), and the Boolean hot path does not route
   through this module at all — [--annot bool] runs the untouched set
   engines, which is the "monomorphized so it cannot regress" story. *)

type tag = Bool | Count | MinPlus | Why

let names = [ "bool"; "count"; "minplus"; "why" ]

let name_of = function
  | Bool -> "bool"
  | Count -> "count"
  | MinPlus -> "minplus"
  | Why -> "why"

let of_string = function
  | "bool" -> Ok Bool
  | "count" -> Ok Count
  | "minplus" -> Ok MinPlus
  | "why" -> Ok Why
  | s ->
      Error
        (Printf.sprintf "unknown annotation '%s' (valid: %s)" s
           (String.concat ", " names))

(* --- why-provenance polynomials ---------------------------------- *)

(* Bounds on the truncated polynomials. Generous enough that the law
   battery's small random values never truncate, small enough that a
   fact's annotation stays O(1) memory on real fixpoints. *)
let max_monomials = 12
let max_factors = 12

type why = { monos : string list list; more : bool }
(* invariant: each monomial is sorted and duplicate-free; [monos] is
   sorted by (length, then lexicographic) and duplicate-free; [more]
   records that monomials were dropped by the bounds, so the polynomial
   is a prefix of the true one under that order *)

let compare_mono (a : string list) (b : string list) =
  let c = Int.compare (List.length a) (List.length b) in
  if c <> 0 then c else Stdlib.compare a b

let truncate_monos monos =
  let rec take n = function
    | [] -> ([], false)
    | _ :: _ when n = 0 -> ([], true)
    | m :: rest ->
        let kept, dropped = take (n - 1) rest in
        (m :: kept, dropped)
  in
  take max_monomials monos

let why_zero = { monos = []; more = false }
let why_one = { monos = [ [] ]; more = false }
let why_is_zero w = w.monos = [] && not w.more

let why_plus a b =
  if why_is_zero a then b
  else if why_is_zero b then a
  else
    let merged = List.sort_uniq compare_mono (a.monos @ b.monos) in
    let kept, dropped = truncate_monos merged in
    { monos = kept; more = a.more || b.more || dropped }

let why_times a b =
  if why_is_zero a || why_is_zero b then why_zero
  else
    let oversize = ref false in
    let prods =
      List.concat_map
        (fun m1 ->
          List.filter_map
            (fun m2 ->
              let m = List.sort_uniq String.compare (m1 @ m2) in
              if List.length m > max_factors then (
                oversize := true;
                None)
              else Some m)
            b.monos)
        a.monos
    in
    let merged = List.sort_uniq compare_mono prods in
    let kept, dropped = truncate_monos merged in
    { monos = kept; more = a.more || b.more || !oversize || dropped }

let why_to_string { monos; more } =
  match (monos, more) with
  | [], false -> "0"
  | [], true -> "..."
  | _ ->
      let mono = function
        | [] -> "1"
        | fs -> String.concat "*" fs
      in
      String.concat " + " (List.map mono monos)
      ^ if more then " + ..." else ""

(* --- the universal annotation value ------------------------------- *)

type v = B of bool | C of int | W of int | P of why

let omega = max_int (* Count: ω, the saturation point *)
let minplus_zero = max_int (* MinPlus: +∞, no derivation *)
let minplus_bottom = min_int (* MinPlus: −∞, diverging weight *)

let count_plus a b =
  if a = omega || b = omega || a > omega - b then omega else a + b

let count_times a b =
  if a = 0 || b = 0 then 0
  else if a = omega || b = omega || a > omega / b then omega
  else a * b

let minplus_times a b =
  if a = minplus_zero || b = minplus_zero then minplus_zero
  else if a = minplus_bottom || b = minplus_bottom then minplus_bottom
  else a + b

type t = {
  tag : tag;
  zero : v;
  one : v;
  plus : v -> v -> v;
  times : v -> v -> v;
}

let type_err op = invalid_arg ("Semiring." ^ op ^ ": mixed instances")

let get = function
  | Bool ->
      {
        tag = Bool;
        zero = B false;
        one = B true;
        plus =
          (fun a b ->
            match (a, b) with B x, B y -> B (x || y) | _ -> type_err "plus");
        times =
          (fun a b ->
            match (a, b) with B x, B y -> B (x && y) | _ -> type_err "times");
      }
  | Count ->
      {
        tag = Count;
        zero = C 0;
        one = C 1;
        plus =
          (fun a b ->
            match (a, b) with
            | C x, C y -> C (count_plus x y)
            | _ -> type_err "plus");
        times =
          (fun a b ->
            match (a, b) with
            | C x, C y -> C (count_times x y)
            | _ -> type_err "times");
      }
  | MinPlus ->
      {
        tag = MinPlus;
        zero = W minplus_zero;
        one = W 0;
        plus =
          (fun a b ->
            match (a, b) with W x, W y -> W (min x y) | _ -> type_err "plus");
        times =
          (fun a b ->
            match (a, b) with
            | W x, W y -> W (minplus_times x y)
            | _ -> type_err "times");
      }
  | Why ->
      {
        tag = Why;
        zero = P why_zero;
        one = P why_one;
        plus =
          (fun a b ->
            match (a, b) with
            | P x, P y -> P (why_plus x y)
            | _ -> type_err "plus");
        times =
          (fun a b ->
            match (a, b) with
            | P x, P y -> P (why_times x y)
            | _ -> type_err "times");
      }

(* The absorbing "diverged" value the stabilization check forces on
   facts still changing past the round bound: once a fact is [top], no
   ⊕ can move it again (Count and MinPlus genuinely absorb; Bool's top
   is just [one]; Why marks the polynomial as truncated). *)
let top = function
  | Bool -> B true
  | Count -> C omega
  | MinPlus -> W minplus_bottom
  | Why -> P { monos = []; more = true }

let equal_v a b =
  match (a, b) with
  | B x, B y -> x = y
  | C x, C y -> x = y
  | W x, W y -> x = y
  | P x, P y -> x.more = y.more && x.monos = y.monos
  | _ -> false

(* [is_idempotent] decides the annotation fixpoint's update rule: an
   idempotent ⊕ (a ⊕ a = a) supports the inflationary "old ⊕ new"
   update; Count's + would double-count and recomputes each round. *)
let is_idempotent = function Bool | MinPlus | Why -> true | Count -> false

let label ~pred vals =
  Printf.sprintf "%s(%s)" pred
    (String.concat ", " (List.map Value.to_string vals))

(* Base-fact annotation. MinPlus reads the fact's weight from its last
   column when that column is an integer (the convention that keeps the
   parser and tuple layer unchanged: rules thread weight columns as
   ordinary data, e.g. [T(X, Y) :- E(X, Y, W).]); everything else is
   the ⊗-identity so unweighted facts cost nothing. *)
let of_edb tag ~pred tup =
  match tag with
  | Bool -> B true
  | Count -> C 1
  | MinPlus -> (
      let n = Tuple.arity tup in
      if n = 0 then W 0
      else
        match Tuple.get tup (n - 1) with Value.Int w -> W w | _ -> W 0)
  | Why -> P { monos = [ [ label ~pred (Tuple.to_list tup) ] ]; more = false }

let to_string = function
  | B b -> if b then "true" else "false"
  | C n -> if n = omega then "inf" else string_of_int n
  | W n ->
      if n = minplus_zero then "inf"
      else if n = minplus_bottom then "-inf"
      else string_of_int n
  | P w -> why_to_string w

let pp fmt v = Format.pp_print_string fmt (to_string v)
