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
# breakage, an interning smoke step (the interned engines must still
# derive the known TC fact counts, and the CLI must report intern
# counters), a trace smoke step (emit a JSONL trace and validate it
# against the schema with datalog-trace-check, then pipe a -j 4 trace
# through the checker and require the same tally, so the sharded loop's
# round spans are schema-checked and match the sequential ones; the
# installed binaries are invoked directly so the pipe never contends
# for the dune lock), an active-domain smoke step (a stratified run of
# the safe TC program must report no "adom" span — the domain is never
# materialized — and the same program plus a rule whose head variable
# only a negative literal binds must report exactly one, with its
# values= size), and a parallel smoke
# step: run the same program at -j 4, check the output is byte-identical
# to the sequential run and carries the expected fact count, and run the
# cross-jobs determinism property suite. The FO smoke step answers a
# negation query through the safe-range compiler and checks that the
# compiled path (not a fallback) produced it. The demand smoke step
# answers a point query twice through the demand compiler and checks
# that plans were compiled, the repeat was a cache hit, and the
# multi-round fixpoint probed memoized stored-relation join indexes
# (a non-zero ra.index.hits: the memo engaged). The explain
# smoke step runs --explain on a demand TC query and checks the
# annotated tree shows a join operator with an actual rows-out figure.
# The shard smoke step runs the sharded (default) parallel path at -j 4,
# checks byte-identity against the sequential output, and greps the
# stats for par.exchanged_tuples — proof the exchange carried the
# cross-shard traffic. The serve smoke step
# starts a resident server on a Unix-domain socket, asserts a batch and
# checks the new derived fact is queryable, retracts it and checks the
# view shrank back (DRed), greps serve.requests out of the stats op,
# and shuts the server down cleanly (the built binary is invoked
# directly so the background server never contends for the dune lock).
# The provenance smoke step answers the TC query under --annot why and
# greps a full provenance polynomial — the facts must come from -f (a
# real EDB) because inline program facts are empty-body rules whose
# annotation is the empty product 1.
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
	printf 'T(X, Y) :- G(X, Y).\nT(X, Y) :- G(X, Z), T(Z, Y).\nG(a, b). G(b, c). G(c, d).\n' > _ci_tc.dl
	dune exec -- datalog-unchained run -s seminaive _ci_tc.dl --stats | grep -q 'intern.values'
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
	dune exec -- datalog-unchained run -s seminaive _ci_tc.dl > _ci_seq.out
	dune exec -- datalog-unchained run -s seminaive -j 4 _ci_tc.dl > _ci_par.out
	cmp _ci_seq.out _ci_par.out
	grep -c '^T(' _ci_par.out | grep -qx 6
	dune exec -- datalog-unchained run -s stratified -j 4 _ci_tc.dl --stats | grep -q 'par.domains.*4'
	dune exec -- datalog-unchained run -s seminaive -j 4 _ci_tc.dl --stats | grep -q 'par.exchanged_tuples'
	dune exec test/test_main.exe -- test parallel
	printf 'G(a, b). G(b, c). G(c, d).\n' > _ci_fo.facts
	dune exec -- datalog-unchained fo -f _ci_fo.facts 'G(X, Y) & !G(Y, d)' --stats | grep -q 'fo.plan.compiled'
	dune exec -- datalog-unchained query _ci_tc.dl -q 'T(a, Y)' -q 'T(a, d)' --demand --stats > _ci_demand.out
	grep -q 'demand.plan.compiled' _ci_demand.out
	grep -q 'demand.cache.hits *1' _ci_demand.out
	grep -qE 'ra\.index\.hits +[1-9]' _ci_demand.out
	dune exec -- datalog-unchained query _ci_tc.dl -q 'T(a, Y)' --demand --explain > _ci_explain.out
	grep -qE 'join\[[0-9]+=[0-9]+\].* rows_out=[0-9]+' _ci_explain.out
	printf 'T(X, Y) :- G(X, Y).\nT(X, Y) :- G(X, Z), T(Z, Y).\n' > _ci_srv.dl
	printf 'G(a, b). G(b, c).\n' > _ci_srv.facts
	_build/install/default/bin/datalog-unchained serve _ci_srv.dl -f _ci_srv.facts --socket _ci_srv.sock > _ci_srv.out 2>&1 & \
	for _ in $$(seq 1 200); do [ -S _ci_srv.sock ] && break; sleep 0.05; done; \
	client() { _build/install/default/bin/datalog-unchained client --socket _ci_srv.sock "$$@"; }; \
	client assert 'G(c, d).' | grep -q 'added 1' && \
	client query 'T(a, Y)' | grep -q 'T(a, d).' && \
	client retract 'G(c, d).' | grep -q 'removed 1, overdeleted' && \
	test -z "$$(client query 'T(a, d)')" && \
	client stats | grep -q 'serve.requests' && \
	client shutdown | grep -q 'server stopped' && \
	wait && grep -q 'listening on' _ci_srv.out
	dune exec -- datalog-unchained run _ci_srv.dl -f _ci_srv.facts -a T --annot why | grep -Fq 'T(a, c). % G(a, b)*G(b, c)'
	rm -f _ci_tc.dl _ci_tc.jsonl _ci_seq.check _ci_safe.stats _ci_ct.dl _ci_ct.stats _ci_seq.out _ci_par.out _ci_fo.facts _ci_demand.out _ci_explain.out \
	  _ci_srv.dl _ci_srv.facts _ci_srv.sock _ci_srv.out

clean:
	dune clean
