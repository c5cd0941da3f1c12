# Convenience targets; everything is plain dune underneath.

.PHONY: all build test lint bench bench-quick examples clean doc

all: build

build:
	dune build @all

test:
	dune runtest

# Static analysis gate: tools/atplint judges lib/, bin/ and bench/,
# and also scans examples/, tools/, test/ and benchmark/ for callers
# of lib/ exports; needs the 5.1 compiler, a no-op elsewhere.  See
# docs/LINTING.md.
lint:
	dune build @lint

test-verbose:
	dune runtest --force --no-buffer

bench:
	dune exec bench/main.exe

bench-quick:
	dune exec bench/main.exe -- --quick

examples:
	dune exec examples/quickstart.exe
	dune exec examples/graph_analytics.exe
	dune exec examples/buffer_pool.exe
	dune exec examples/ballsbins_demo.exe
	dune exec examples/process_sim.exe

clean:
	dune clean
