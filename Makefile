.PHONY: all build lint lint-project test check prop diff bench-json bench-diff evidence clean

all: build

build:
	dune build

lint:
	dune build @lint @lint-project

# The whole-project interprocedural pass alone (R9-R11), run directly so
# its scan-surface summary (files / functions / shard-reachable counts)
# is always printed — a silently-shrinking scan shows up as a dropped
# count, not a silently-green gate.
lint-project:
	dune build tools/lint/divlint.exe
	dune exec tools/lint/divlint.exe -- --project

test:
	dune runtest

# Fully-timed kernel benchmark artefact, stamped with the current commit.
bench-json:
	GIT_REV=$$(git rev-parse --short HEAD) dune exec bench/main.exe -- json -o BENCH_kernels.json
	dune exec tools/benchcheck/benchcheck.exe -- BENCH_kernels.json

# Per-kernel speedup/regression report between two bench artefacts.
# Defaults compare the committed full-mode BENCH_kernels.json against a
# freshly timed run (written to BENCH_candidate.json and left in place
# for inspection); override either side or the threshold with
#   make bench-diff BENCH_BASE=old.json BENCH_CAND=new.json BENCH_MAX_REGRESSION=10
# The gate (exit 1 past the threshold) only engages when both artefacts
# carry full-mode timings.
BENCH_BASE ?= BENCH_kernels.json
BENCH_CAND ?= BENCH_candidate.json
BENCH_MAX_REGRESSION ?= 25
bench-diff:
	@if [ ! -f $(BENCH_CAND) ]; then \
	  GIT_REV=$$(git rev-parse --short HEAD) dune exec bench/main.exe -- json -o $(BENCH_CAND); \
	fi
	dune exec tools/benchdiff/benchdiff.exe -- --max-regression $(BENCH_MAX_REGRESSION) $(BENCH_BASE) $(BENCH_CAND)

# The single-command gate CI should run. The test suite executes twice,
# on a 1-domain (inline sequential) and a 2-domain default pool: the
# determinism contract says the outputs cannot differ, and running both
# ways keeps that claim continuously tested. (--force, because dune
# would otherwise replay the cached first run.) The property suite
# (test/test_prop.exe) draws its cases from a fixed seed by default;
# the JSON parser differential (test/test_json.exe) runs once more on a
# second fixed seed, like the oracle suite (test/test_diff.exe);
# `make check PROP_SEED=1234` replays/explores a different case stream
# (empty means the built-in seed).
PROP_SEED ?=
check:
	dune build @lint
	dune build tools/lint/divlint.exe
	dune exec tools/lint/divlint.exe -- --project
	dune build
	DIVREL_DOMAINS=1 PROP_SEED=$(PROP_SEED) dune runtest --force
	DIVREL_DOMAINS=2 PROP_SEED=$(PROP_SEED) dune runtest --force
	DIVREL_DOMAINS=2 PROP_SEED=271828 dune exec test/test_diff.exe
	DIVREL_DOMAINS=2 PROP_SEED=314159 dune exec test/test_diff.exe
	DIVREL_DOMAINS=2 PROP_SEED=271828 dune exec test/test_json.exe
	dune build @bench-smoke
	dune build @evidence-smoke
	dune build @check-smoke
	dune build @all-smoke

# Proven-in-use evidence pipeline, end to end: log a fleet campaign
# (E26, seed 42) and stream the run log through the assessor with
# windowed interim verdicts, printing the final text report.
evidence:
	dune build bin/experiments_cli.exe
	dune exec bin/experiments_cli.exe -- run E26 --seed 42 --shards 1 --log /tmp/divrel_e26_runlog.jsonl > /dev/null
	dune exec bin/experiments_cli.exe -- evidence /tmp/divrel_e26_runlog.jsonl --window 400 --profile uniform:1600

# Replay/explore the property suites on a chosen case stream:
#   make prop PROP_SEED=1234
# runs the Prop-based binaries (the harness properties, the
# differential oracle suite and the JSON parser differential) with that
# base seed; empty means the built-in default (0x5eed_cafe).
prop:
	PROP_SEED=$(PROP_SEED) dune exec test/test_prop.exe
	PROP_SEED=$(PROP_SEED) dune exec test/test_diff.exe
	PROP_SEED=$(PROP_SEED) dune exec test/test_json.exe

# Just the differential oracle suite (analytic formulas vs simulation),
# same PROP_SEED replay contract as `make prop`.
diff:
	PROP_SEED=$(PROP_SEED) dune exec test/test_diff.exe

clean:
	dune clean
