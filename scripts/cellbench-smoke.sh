#!/bin/sh
# cellbench-smoke runs the campaign-cell benchmark's own tests, then one
# short traced pass of the table1-n15-d10 workload, and requires its
# JSON summary to report every mission output correct (each cell's
# EncodeCell bytes equal to the stored reference) with no failed
# mission. The benchmark exits 0 even when outputs are wrong, so the
# summary line is what gates. Wired into CI via `make cellbench-smoke`.
set -eu

(cd cellbench && go test ./...)

summary=$(bash cellbench/run.sh --workload table1-n15-d10 --seed 1 --seconds 1 --trace 1 | tail -n 1)
case "$summary" in
*'"correct":true,'*'"failed":0,'*) echo "cellbench-smoke: ok (correct, 0 failed)" ;;
*)
	echo "cellbench-smoke: outputs differ from the stored references or missions failed:" >&2
	printf '%s\n' "$summary" | cut -c1-200 >&2
	exit 1
	;;
esac
