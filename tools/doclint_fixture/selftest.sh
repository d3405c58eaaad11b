#!/bin/sh
# Self-test of doclint's dead-surface, assert and polymorphic-comparison
# rules: copy the fixture to lib/demo/demo.mli, lib/demo/demo.ml,
# test/test_demo.ml, examples/demo_example.ml and lib/sim/hot.ml in a
# scratch directory, run doclint on the five files, and expect exit 1
# with exactly the lines of expected.txt: the value a test alone uses,
# the assert that performs a simulated load, the host-side read outside
# an assert and the bare max in simulator code are named.  The fixture
# files are not .ml/.mli files, so the repo-wide doclint run does not
# read them.
#
# Usage: selftest.sh DOCLINT_EXE FIXTURE_DIR
set -u
exe=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
fx=$(cd "$2" && pwd)
d=$(mktemp -d)
trap 'rm -rf "$d"' EXIT
mkdir -p "$d/lib/demo" "$d/lib/sim" "$d/test" "$d/examples"
cp "$fx/demo.mli.fixture" "$d/lib/demo/demo.mli"
cp "$fx/demo.ml.fixture" "$d/lib/demo/demo.ml"
cp "$fx/test_demo.ml.fixture" "$d/test/test_demo.ml"
cp "$fx/demo_example.ml.fixture" "$d/examples/demo_example.ml"
cp "$fx/hot.ml.fixture" "$d/lib/sim/hot.ml"
cd "$d" || exit 2
status=0
"$exe" lib/demo/demo.mli lib/demo/demo.ml test/test_demo.ml \
  examples/demo_example.ml lib/sim/hot.ml 2> err || status=$?
if [ "$status" != 1 ]; then
  echo "doclint self-test: exit $status, expected 1" >&2
  cat err >&2
  exit 1
fi
diff "$fx/expected.txt" err
