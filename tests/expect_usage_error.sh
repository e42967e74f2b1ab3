#!/bin/sh
# Runs a CLI invocation that must be rejected as a usage error: exit status
# exactly 2 (not 0, not a crash's 128+signal) with a diagnostic on stderr.
# Usage: expect_usage_error.sh <binary> <args...>
err=$("$@" 2>&1 >/dev/null)
rc=$?
if [ "$rc" -ne 2 ]; then
  echo "expected exit 2 from: $*; got $rc" >&2
  [ -n "$err" ] && echo "$err" >&2
  exit 1
fi
if [ -z "$err" ]; then
  echo "no diagnostic on stderr from: $*" >&2
  exit 1
fi
echo "$err"
