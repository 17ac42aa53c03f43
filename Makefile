.PHONY: all build test bench ci clean

all: build

build:
	dune build

test:
	dune runtest

# full benchmark sweep with machine-readable timings
bench:
	dune exec bench/main.exe -- --json BENCH_engines.json

# what a CI job runs: build, full test suite, a bench smoke run
# (e2 = naive vs semi-naive transitive closure) to catch perf-path
# breakage, a first-write smoke step (e21 must emit its in-process
# rows for Engine.create plus the first assert and plus the first
# retract on serve-mixed's DAG shape, the assert and the retract alone
# after an untimed create, each with its deterministic T fact count,
# and the steady-state write rows with the final T count of their
# seeded schedule), a loader step (e36 must load its two seeded
# social-shaped texts, short and long value names, to their known fact
# counts and interned-value counts, and their first loads must allocate
# their known minor-heap words per fact: 5.51 and 5.63 with one block
# per tuple and no list of rows beside each predicate's set, where a
# row list read 8.50 and 8.62 and two blocks per tuple 10.50 and
# 10.62), a trace
# tax step (tracecost replays a seeded 600-request serve schedule on a
# traced and an untraced engine in turn; over all requests the traced
# engine may allocate at most 100 more minor-heap words per request
# than the untraced one: 75 with counters by key, where counting by
# name read 680; allocation is deterministic, so the bound cannot
# flake), an
# interning smoke step (the interned engines must still
# derive the known TC fact counts, and the CLI must report intern
# counters, and matcher.delta_first: some delta pass of the TC rule
# started from the delta, and db.index_builds 2: T[0] and G[1], while
# the keyless first step of the TC rule walks G's set and builds no
# index), a trace smoke step (emit a JSONL trace and validate it
# against the schema with datalog-trace-check, then pipe a -j 4 trace
# through the checker and require the same tally, so the round spans of
# the semi-naive loop on four workers are schema-checked and match the
# one-worker ones; the
# installed binaries are invoked directly so the pipe never contends
# for the dune lock), an active-domain smoke step (a stratified run of
# the safe TC program must report no "adom" span — the domain is never
# materialized — and the same program plus a rule whose head variable
# only a negative literal binds must report exactly one, with its
# values= size), a materialize smoke step (the TC program's --stats
# lists two "materialize" spans, for G, whose facts are inline rules,
# and for T, and its trace opens exactly one for T: the fixpoint's
# membership set is lent to the published relation once; then the CT
# program, whose later stratum reads the lent T, must print the same
# bytes at -j 1 and -j 4), and a parallel
# smoke
# step: run the same program at -j 4, check the output is byte-identical
# to the sequential run and carries the expected fact count, and run the
# cross-jobs determinism property suite. The answer-print step checks
# that `run -a T` prints exactly the T lines of the full output (the
# program-term and fact-file dialects agree on lower-identifier
# symbols) and that --stats lists exactly one print span. The FO smoke step answers a
# negation query through the safe-range compiler and checks that the
# compiled path (not a fallback) produced it. The explain smoke step
# runs fo --explain on a four-hop path query and checks that its joins
# probed memoized stored-relation join indexes (a non-zero
# ra.index.hits: the memo engaged) and that the annotated tree shows a
# join operator with an actual rows-out figure. The query smoke step
# answers three point queries in one magic session and checks that all
# three ran and that the one sharing a binding pattern with an earlier
# query reused its rewrite (magic.rewrite_memo_hits).
# The exchange smoke step runs the semi-naive loop on four workers
# (-j 4), checks byte-identity against the -j 1 output, and greps the
# stats for par.exchanged_tuples — proof the exchange carried the
# cross-worker traffic. The stored-facts step runs TC at -j 1 and -j 2
# over facts that already hold T facts, one of which the rules derive
# again (the loop must treat them as known, from the database's
# membership set, at every worker count), and cmp's the two outputs
# and the two runs' round counters. The serve smoke step
# starts a resident server on a Unix-domain socket, asserts a batch and
# checks the new derived fact is queryable, requires the demand query
# path to print the same answer bytes as the materialized one
# (--via demand cmp'd against the default) before and after a stored
# fact of the idb predicate T is asserted, retracts it and checks the
# view shrank back (DRed), greps serve.requests out of the stats op,
# and shuts the server down cleanly (the built binary is invoked
# directly so the background server never contends for the dune lock).
# The provenance smoke step answers the TC query under --annot why and
# greps a full provenance polynomial — the facts must come from -f (a
# real EDB) because inline program facts are empty-body rules whose
# annotation is the empty product 1.
# The round-trip smoke step runs a program whose string constants hold
# a comma, an escaped quote, a '%' and a "//", reloads its printed
# output with -f, and requires the second run to print the same bytes.
# It then does the same for answers in program-term syntax: `run -a`
# and `query` print symbols that are not lower identifiers quoted
# ('Abc', with escapes), and that output must reload to the same facts;
# and for full output over symbols the fact syntax cannot hold bare
# ('42', 'a, b. 50%', 'x.y'), which it must print quoted. The index
# smoke step runs a stratified program whose last body atom is fully
# bound: --stats must show the index layer (an "index" span total) and
# count the steps the membership set answered (matcher.member_probes).
# The fuel step walks a program that toggles a fact forever: the walk
# must run out of fuel with exit 3, one line on stderr naming the engine
# and its budget, and nothing on stdout.
# The wave step runs two independent TCs (two SCCs in one stratum)
# under the stratified engine at -j 1 and -j 2: the outputs must be
# byte-identical, and --stats at -j 2 must count par.waves, proof the
# planner split the stratum and its groups ran as one parallel wave.
# The prewarm step runs social-ingest's stratified friend-of-friend
# program at -j 1 and -j 2: both must report the same db.index_builds,
# so warming a plan for parallel workers builds no index that only a
# delta pass could read when the rule has no delta predicate.
# The bench-diff step
# compares the freshly regenerated e2 rows against the committed
# BENCH_engines.json and GATES: rows from a different machine shape are
# auto-excluded via each row's meta (jobs/cores), and the threshold is
# generous (500%) because this catches order-of-magnitude perf-path
# breakage, not noise — the box's wall-clock variance is large.
ci:
	dune build
	dune runtest
	dune exec bench/main.exe -- e2 --json _ci_bench.json
	grep -q '"case": "random-300x900".*"engine": "seminaive".*"facts": 79230' _ci_bench.json
	grep -q '"case": "chain-160".*"engine": "seminaive".*"facts": 12720' _ci_bench.json
	dune exec -- datalog-bench-diff BENCH_engines.json _ci_bench.json --threshold 500
	rm -f _ci_bench.json
	dune exec bench/main.exe -- e21 --json _ci_e21.json > /dev/null
	grep -q '"case": "first-write-dag-1000x3000".*"engine": "create".*"facts": 37692' _ci_e21.json
	grep -q '"case": "first-write-dag-1000x3000".*"engine": "create+assert".*"facts": 39234' _ci_e21.json
	grep -q '"case": "first-write-dag-1000x3000".*"engine": "create+retract".*"facts": 37474' _ci_e21.json
	grep -q '"case": "first-write-dag-1000x3000".*"engine": "assert".*"facts": 39234' _ci_e21.json
	grep -q '"case": "first-write-dag-1000x3000".*"engine": "retract".*"facts": 37474' _ci_e21.json
	grep -q '"case": "steady-writes-dag-1000x3000".*"engine": "assert".*"facts": 40282' _ci_e21.json
	grep -q '"case": "steady-writes-dag-1000x3000".*"engine": "retract".*"facts": 40282' _ci_e21.json
	rm -f _ci_e21.json
	dune exec bench/main.exe -- e36 --json _ci_e36.json > /dev/null
	grep -q '"case": "social-20000-short".*"facts": 170050, "metrics": {"intern.values": 20300,' _ci_e36.json
	grep -q '"case": "social-20000-long".*"facts": 170050, "metrics": {"intern.values": 20300,' _ci_e36.json
	grep -q '"case": "social-20000-short".*"minor_words_per_fact": 5.51}' _ci_e36.json
	grep -q '"case": "social-20000-long".*"minor_words_per_fact": 5.63}' _ci_e36.json
	rm -f _ci_e36.json
	dune exec bench/main.exe -- tracecost --json _ci_tracecost.json > /dev/null
	sed -nE 's/.*"engine": "all".*"minor_words_tax": ([0-9.-]+).*/\1/p' _ci_tracecost.json \
	  | awk 'NF { n++; if ($$1 > 100) bad = 1 } END { exit (n != 1 || bad) }'
	rm -f _ci_tracecost.json
	printf 'T(X, Y) :- G(X, Y).\nT(X, Y) :- G(X, Z), T(Z, Y).\nG(a, b). G(b, c). G(c, d).\n' > _ci_tc.dl
	dune exec -- datalog-unchained run -s seminaive _ci_tc.dl --stats > _ci_tc.stats
	grep -q 'intern.values' _ci_tc.stats
	grep -q 'matcher.delta_first' _ci_tc.stats
	grep -qE '^  db\.index_builds +2$$' _ci_tc.stats
	dune exec -- datalog-unchained run -s seminaive _ci_tc.dl --trace _ci_tc.jsonl > /dev/null
	dune exec -- datalog-trace-check _ci_tc.jsonl > _ci_seq.check
	_build/install/default/bin/datalog-unchained run -s seminaive -j 4 _ci_tc.dl --trace /dev/fd/3 3>&1 > /dev/null \
	  | _build/install/default/bin/datalog-trace-check - | cmp - _ci_seq.check
	dune exec -- datalog-unchained run -s stratified _ci_tc.dl --stats > _ci_safe.stats
	! grep -q '^  adom ' _ci_safe.stats
	printf 'CT(X, Y) :- !T(X, Y).\n' | cat _ci_tc.dl - > _ci_ct.dl
	dune exec -- datalog-unchained run -s stratified _ci_ct.dl --stats > _ci_ct.stats
	grep -c '^  adom ' _ci_ct.stats | grep -qx 1
	grep -qE '^  adom .* values=4$$' _ci_ct.stats
	dune exec -- datalog-unchained run -s seminaive _ci_tc.dl --stats > _ci_mat.stats
	grep -qE '^  materialize +2 spans' _ci_mat.stats
	dune exec -- datalog-unchained run -s seminaive _ci_tc.dl --trace _ci_mat.jsonl > /dev/null
	grep -c '"type":"span_open".*"kind":"materialize","name":"T"' _ci_mat.jsonl | grep -qx 1
	dune exec -- datalog-unchained run -s stratified _ci_ct.dl > _ci_ct1.out
	dune exec -- datalog-unchained run -s stratified -j 4 _ci_ct.dl > _ci_ct4.out
	cmp _ci_ct1.out _ci_ct4.out
	dune exec -- datalog-unchained run -s seminaive _ci_tc.dl > _ci_seq.out
	dune exec -- datalog-unchained run -s seminaive -j 4 _ci_tc.dl > _ci_par.out
	cmp _ci_seq.out _ci_par.out
	grep -c '^T(' _ci_par.out | grep -qx 6
	dune exec -- datalog-unchained run -s seminaive _ci_tc.dl -a T > _ci_ans.out
	grep '^T(' _ci_seq.out | cmp - _ci_ans.out
	dune exec -- datalog-unchained run -s seminaive _ci_tc.dl --stats > _ci_print.stats
	grep -c '^  print ' _ci_print.stats | grep -qx 1
	dune exec -- datalog-unchained run -s stratified -j 4 _ci_tc.dl --stats | grep -q 'par.domains.*4'
	dune exec -- datalog-unchained run -s seminaive -j 4 _ci_tc.dl --stats | grep -q 'par.exchanged_tuples'
	printf 'T(X, Y) :- G(X, Y).\nT(X, Y) :- G(X, Z), T(Z, Y).\n' > _ci_tcf.dl
	printf 'G(a, b). G(b, c). G(c, d). G(d, a). G(e, a). T(a, b). T(d, z). T(b, b). T(e, e).\n' > _ci_tcf.facts
	dune exec -- datalog-unchained run -s seminaive _ci_tcf.dl -f _ci_tcf.facts > _ci_tcf1.out
	dune exec -- datalog-unchained run -s seminaive -j 2 _ci_tcf.dl -f _ci_tcf.facts > _ci_tcf2.out
	cmp _ci_tcf1.out _ci_tcf2.out
	grep -c '^T(' _ci_tcf2.out | grep -qx 26
	dune exec -- datalog-unchained run -s seminaive _ci_tcf.dl -f _ci_tcf.facts --stats | grep -E '^  (fixpoint\.(rounds|delta_total|delta_max|tuples_derived|tuples_deduped)|matcher\.substs) ' > _ci_tcf1.shape
	dune exec -- datalog-unchained run -s seminaive -j 2 _ci_tcf.dl -f _ci_tcf.facts --stats | grep -E '^  (fixpoint\.(rounds|delta_total|delta_max|tuples_derived|tuples_deduped)|matcher\.substs) ' > _ci_tcf2.shape
	cmp _ci_tcf1.shape _ci_tcf2.shape
	dune exec test/test_main.exe -- test parallel
	printf 'G(a, b). G(b, c). G(c, d). G(d, e). G(e, f).\n' > _ci_fo.facts
	dune exec -- datalog-unchained fo -f _ci_fo.facts 'G(X, Y) & !G(Y, d)' --stats | grep -q 'fo.plan.compiled'
	dune exec -- datalog-unchained fo -f _ci_fo.facts \
	  'exists Z, W, V (G(X, Z) & G(Z, W) & G(W, V) & G(V, Y)) & exists U (G(Y, U))' --stats --explain > _ci_explain.out
	grep -qE 'ra\.index\.hits +[1-9]' _ci_explain.out
	grep -qE 'join\[[0-9]+=[0-9]+\].* rows_out=[0-9]+' _ci_explain.out
	dune exec -- datalog-unchained query _ci_tc.dl -q 'T(a, Y)' -q 'T(a, d)' -q 'T(b, Y)' --stats > _ci_query.out
	grep -qE 'magic\.queries +3$$' _ci_query.out
	grep -qE 'magic\.rewrite_memo_hits +1$$' _ci_query.out
	printf 'T(X, Y) :- G(X, Y).\nT(X, Y) :- G(X, Z), T(Z, Y).\n' > _ci_srv.dl
	printf 'G(a, b). G(b, c).\n' > _ci_srv.facts
	_build/install/default/bin/datalog-unchained serve _ci_srv.dl -f _ci_srv.facts --socket _ci_srv.sock > _ci_srv.out 2>&1 & \
	for _ in $$(seq 1 200); do [ -S _ci_srv.sock ] && break; sleep 0.05; done; \
	client() { _build/install/default/bin/datalog-unchained client --socket _ci_srv.sock "$$@"; }; \
	client assert 'G(c, d).' | grep -q 'added 1' && \
	client query 'T(a, Y)' > _ci_srv_mat.out && grep -q 'T(a, d).' _ci_srv_mat.out && \
	client query --via demand 'T(a, Y)' > _ci_srv_dem.out && cmp _ci_srv_mat.out _ci_srv_dem.out && \
	client assert 'T(d, z).' | grep -q 'added 1' && \
	client query 'T(a, Y)' > _ci_srv_mat.out && grep -q 'T(a, z).' _ci_srv_mat.out && \
	client query --via demand 'T(a, Y)' > _ci_srv_dem.out && cmp _ci_srv_mat.out _ci_srv_dem.out && \
	client retract 'G(c, d).' | grep -q 'removed 1, overdeleted' && \
	test -z "$$(client query 'T(a, d)')" && \
	client stats | grep -q 'serve.requests' && \
	client shutdown | grep -q 'server stopped' && \
	wait && grep -q 'listening on' _ci_srv.out
	dune exec -- datalog-unchained run _ci_srv.dl -f _ci_srv.facts -a T --annot why | grep -Fq 'T(a, c). % G(a, b)*G(b, c)'
	printf 'S("a,b"). S("a\\"b"). S("50%%"). S("x // y").\nQ(X) :- S(X).\n' > _ci_rt.dl
	dune exec -- datalog-unchained run _ci_rt.dl > _ci_rt1.out
	dune exec -- datalog-unchained run _ci_rt.dl -f _ci_rt1.out > _ci_rt2.out
	cmp _ci_rt1.out _ci_rt2.out
	grep -c '^[QS](' _ci_rt2.out | grep -qx 8
	printf '%s\n' "P(Abc). P(_u). P('a, b. 50%'). P('it\'s'). P(x)." > _ci_rtq.facts
	printf 'Q(X) :- P(X).\n' > _ci_rtq.dl
	printf 'R(X) :- Q(X).\n' > _ci_rtr.dl
	dune exec -- datalog-unchained run _ci_rtq.dl -f _ci_rtq.facts -a Q > _ci_rtq1.out
	dune exec -- datalog-unchained query _ci_rtq.dl -f _ci_rtq.facts -q 'Q(X)' > _ci_rtq2.out
	cmp _ci_rtq1.out _ci_rtq2.out
	grep -qF "Q('it\'s')." _ci_rtq2.out
	dune exec -- datalog-unchained run _ci_rtr.dl -f _ci_rtq2.out -a Q | cmp - _ci_rtq2.out
	grep -c '^Q(' _ci_rtq2.out | grep -qx 5
	printf '%s\n' "E('42'). E('a, b. 50%'). E('x.y')." > _ci_rtf.facts
	printf 'P(X) :- E(X).\n' > _ci_rtf.dl
	dune exec -- datalog-unchained run _ci_rtf.dl -f _ci_rtf.facts > _ci_rtf1.out
	dune exec -- datalog-unchained run _ci_rtf.dl -f _ci_rtf1.out > _ci_rtf2.out
	cmp _ci_rtf1.out _ci_rtf2.out
	grep -c '^[EP](' _ci_rtf2.out | grep -qx 6
	printf 'Fof(X, Z) :- Lives(X, c0), F(X, Y), F(Y, Z), Likes(Z, t0).\nLives(a, c0). F(a, b). F(b, c). Likes(c, t0).\n' > _ci_mem.dl
	dune exec -- datalog-unchained run -s stratified _ci_mem.dl --stats > _ci_mem.stats
	grep -q '^  index ' _ci_mem.stats
	grep -qE '^  matcher\.member_probes +[1-9]' _ci_mem.stats
	printf 'on(), !off() :- off().\noff(), !on() :- on().\n' > _ci_fuel.dl
	printf 'on().\n' > _ci_fuel.facts
	_build/install/default/bin/datalog-unchained nondet _ci_fuel.dl -f _ci_fuel.facts > _ci_fuel.out 2> _ci_fuel.err; test $$? -eq 3
	test ! -s _ci_fuel.out
	test "$$(wc -l < _ci_fuel.err)" -eq 1
	grep -qx 'nondet.walk: out of fuel (budget 100000)' _ci_fuel.err
	printf 'T1(X, Y) :- G(X, Y).\nT1(X, Y) :- G(X, Z), T1(Z, Y).\nT2(X, Y) :- H(X, Y).\nT2(X, Y) :- H(X, Z), T2(Z, Y).\n' > _ci_wave.dl
	printf 'G(a, b). G(b, c). G(c, d). H(x, y). H(y, z). H(z, x).\n' > _ci_wave.facts
	dune exec -- datalog-unchained run -s stratified _ci_wave.dl -f _ci_wave.facts > _ci_wave1.out
	dune exec -- datalog-unchained run -s stratified -j 2 _ci_wave.dl -f _ci_wave.facts > _ci_wave2.out
	cmp _ci_wave1.out _ci_wave2.out
	grep -c '^T[12](' _ci_wave2.out | grep -qx 15
	dune exec -- datalog-unchained run -s stratified -j 2 _ci_wave.dl -f _ci_wave.facts --stats | grep -qE '^  par\.waves +[1-9]'
	printf 'Fof(X, Z) :- Lives(X, c0), F(X, Y), F(Y, Z), Likes(Z, t0).\nRec(X, Z) :- Fof(X, Z), !F(X, Z), !Blocked(Z).\n' > _ci_soc.dl
	printf 'Lives(a, c0). Lives(b, c0). F(a, b). F(b, c). F(c, d). F(b, e). F(e, d). Likes(c, t0). Likes(d, t0). Blocked(c).\n' > _ci_soc.facts
	dune exec -- datalog-unchained run -s stratified _ci_soc.dl -f _ci_soc.facts --stats | grep -E '^  db\.index_builds ' > _ci_soc1.builds
	dune exec -- datalog-unchained run -s stratified -j 2 _ci_soc.dl -f _ci_soc.facts --stats | grep -E '^  db\.index_builds ' > _ci_soc2.builds
	cmp _ci_soc1.builds _ci_soc2.builds
	rm -f _ci_tc.dl _ci_tc.stats _ci_tc.jsonl _ci_seq.check _ci_safe.stats _ci_ct.dl _ci_ct.stats \
	  _ci_mat.stats _ci_mat.jsonl _ci_ct1.out _ci_ct4.out _ci_seq.out _ci_par.out _ci_ans.out _ci_print.stats _ci_fo.facts _ci_explain.out _ci_query.out \
	  _ci_srv.dl _ci_srv.facts _ci_srv.sock _ci_srv.out _ci_srv_mat.out _ci_srv_dem.out _ci_rt.dl _ci_rt1.out _ci_rt2.out \
	  _ci_rtq.facts _ci_rtq.dl _ci_rtr.dl _ci_rtq1.out _ci_rtq2.out \
	  _ci_rtf.facts _ci_rtf.dl _ci_rtf1.out _ci_rtf2.out _ci_mem.dl _ci_mem.stats \
	  _ci_tcf.dl _ci_tcf.facts _ci_tcf1.out _ci_tcf2.out _ci_tcf1.shape _ci_tcf2.shape \
	  _ci_fuel.dl _ci_fuel.facts _ci_fuel.out _ci_fuel.err \
	  _ci_wave.dl _ci_wave.facts _ci_wave1.out _ci_wave2.out \
	  _ci_soc.dl _ci_soc.facts _ci_soc1.builds _ci_soc2.builds

clean:
	dune clean
