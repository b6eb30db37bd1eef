#!/bin/sh
# ctest helper enforcing the CLI contract: both the message AND the
# exit status must match (CTest's PASS_REGULAR_EXPRESSION alone would
# ignore the exit code).
#
# usage: check_cli.sh <expected_status> <expected_substring>
#                     [--absent <path>] -- <command...>
#
# --absent: <path> is deleted before the run and must not exist after
# it (a failed run leaves no artifact behind).
expected_status=$1
shift
expected_substring=$1
shift
absent=
if [ "$1" = "--absent" ]; then
  absent=$2
  shift 2
  rm -f "$absent"
fi
[ "$1" = "--" ] && shift

out=$("$@" 2>&1)
status=$?
echo "$out"
case "$out" in
  *"$expected_substring"*) ;;
  *)
    echo "check_cli: output is missing: $expected_substring"
    exit 1
    ;;
esac
if [ "$status" -ne "$expected_status" ]; then
  echo "check_cli: exit status $status, want $expected_status"
  exit 1
fi
if [ -n "$absent" ] && [ -e "$absent" ]; then
  echo "check_cli: left behind: $absent"
  exit 1
fi
exit 0
