#!/bin/sh
# fuzz_floor.sh MIN reads one fuzz target's `go test -fuzz` output on
# stdin, passes it through, and fails unless the run passed and its
# last `execs:` progress line counted at least MIN inputs. A fuzzer
# that stalls (in minimization, say) then fails the build instead of
# printing a low count nobody reads.
#
#	go test -run '^$' -fuzz '^FuzzX$' -fuzztime 10s ./pkg/ 2>&1 | sh scripts/fuzz_floor.sh 10000
min=${1:?usage: fuzz_floor.sh MIN}
awk -v min="$min" '
{ print; fflush() }
match($0, /execs: [0-9]+/) { execs = substr($0, RSTART + 7, RLENGTH - 7) + 0; seen = 1 }
/^ok[ \t]/ { ok = 1 }
END {
	if (!ok) { print "fuzz-floor: the fuzz run did not pass" > "/dev/stderr"; exit 1 }
	if (!seen) { print "fuzz-floor: no execs: line in the output" > "/dev/stderr"; exit 1 }
	if (execs < min) {
		printf "fuzz-floor: the last execs: line counted %d inputs, below the floor of %d\n", execs, min > "/dev/stderr"
		exit 1
	}
	printf "fuzz-floor: %d inputs (floor %d)\n", execs, min
}'
