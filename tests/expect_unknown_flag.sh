#!/bin/sh
# Usage: expect_unknown_flag.sh BINARY FLAG
# Passes iff BINARY, given only FLAG, exits 2 and says "unknown flag".
out=$("$1" "$2" 2>&1)
status=$?
printf '%s\n' "$out"
[ "$status" -eq 2 ] && printf '%s\n' "$out" | grep -q "unknown flag"
