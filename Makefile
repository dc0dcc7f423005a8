# Convenience entry points; the project itself is a plain dune build.

.PHONY: all build quick test check crashcheck-deep fmt bench clean

all: build

build:
	dune build

# Fast suites only (alcotest -q skips the `Slow-tagged shape/property
# tests); use `make test` for the full tier-1 run.
quick:
	dune build && dune runtest -- -q

test:
	dune runtest

# The pre-commit gate, one command per line, each run once:
# - every test suite (crash-state exploration, media faults, verifier,
#   sharding, rings, process failure, snapshots, QoS, directory index);
# - the pinned-seed explorers and plane demos from the command line;
# - `trioctl mutate`: every seeded bug must be caught by its own gate;
# - the plane bench gates (snapshot recovery >= 5x the fsck walk,
#   honest p99 under attack <= 2x baseline, index >= 10x the linear
#   scan); under --fast they print their JSON instead of writing it.
check:
	dune build
	dune runtest
	dune exec bin/trioctl.exe -- crashcheck --seed 1 --scripts 2 --ops 6
	dune exec bin/trioctl.exe -- faults --seed 42 --transient-p 0.01 --stuck-p 0.02
	dune exec bin/trioctl.exe -- scrub --seed 7 --lines 12 --rounds 2
	dune exec bin/trioctl.exe -- verifycheck
	dune exec bin/trioctl.exe -- procfail --seed 1 --scripts 2 --ops 6
	dune exec bin/trioctl.exe -- procfail --seed 1 --scripts 2 --ops 6 --ring 4
	dune exec bin/trioctl.exe -- snap
	dune exec bin/trioctl.exe -- snap --explore 2 --ops 5 --kill-points 10
	dune exec bin/trioctl.exe -- qos --kill-points 6 --ops 6
	dune exec bin/trioctl.exe -- dircheck
	dune exec bin/trioctl.exe -- mutate
	dune exec bench/main.exe -- --fast snaprecover qos dirscale

# Full exploration: more seeds, longer scripts, wider sampling, and the
# deep tier of test_crash (CRASHCHECK_DEEP=1).
crashcheck-deep:
	dune build
	CRASHCHECK_DEEP=1 dune exec test/test_crash.exe
	dune exec bin/trioctl.exe -- crashcheck --seed 1 --scripts 8 --ops 12 --samples 10
	dune exec bin/trioctl.exe -- crashcheck --diff --scripts 4 --ops 10

fmt:
	dune build @fmt

bench:
	dune exec bench/main.exe

clean:
	dune clean
