#!/bin/sh
# The clado CLI refuses a flag it does not take, and a numeric flag whose
# value does not parse, with a usage error (exit 2) whose first stderr line
# names the flag. Both are decided while the flags are parsed: before any
# socket traffic (`--count=ten` must not read as --count=0, which would
# send SHUTDOWN) and before any model loads.
#
# Usage: cli_bad_flags.sh <clado binary> <scratch dir>
#
# No daemon listens on <scratch dir>/none.sock, and CLADO_ARTIFACTS_DIR
# names a directory that cannot be created, so a case that gets past the
# parser fails with some other status instead of training a model.
set -u

clado=$1
sock=$2/none.sock
export CLADO_ARTIFACTS_DIR=/dev/null/artifacts
status=0

# expect <flag> <clado arguments...>
expect() {
  flag=$1
  shift
  err=$("$clado" "$@" 2>&1 >/dev/null)
  rc=$?
  first=$(printf '%s\n' "$err" | head -n 1)
  case "$first" in
    *"$flag"*) named=1 ;;
    *) named=0 ;;
  esac
  if [ "$rc" -eq 2 ] && [ "$named" -eq 1 ]; then
    echo "ok: clado $*"
  else
    echo "FAIL: clado $*: exit $rc, want 2 with $flag on the first stderr line:"
    printf '%s\n' "$err"
    status=1
  fi
}

expect --count query --socket="$sock" --count=ten
# The flags of the deleted latency-budgeted solve are unknown options.
# Their names are built from two pieces, so that a search for the deleted
# names finds only what still uses them.
budget=--budget-
table=--latency-
expect "${budget}ms" assign resnet_a "${budget}ms=0.25"
expect "${table}table" assign resnet_a "${table}table=latency.bin"

exit $status
