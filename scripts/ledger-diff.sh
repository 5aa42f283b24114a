#!/usr/bin/env bash
# Compares the deterministic perfbench figures of a base revision with
# those of the current checkout, and prints every one that differs:
#
#   bash scripts/ledger-diff.sh <base-rev> [workload ...]
#
# The workloads default to all four of BENCHMARK.json. For each one the
# script runs, in an export of <base-rev> under .bench_build/ and in the
# current checkout,
#
#   perfbench/run.sh --workload W --seed 1 --seconds 2 --trace 1
#
# and compares every per-layer figure that is a function of the seed:
# counts, bytes, virtual-time figures and virtual percentiles. A short
# untraced run adds virtual_s and virtual_ops_per_s. Host-time figures
# are skipped: setup_s, host_*, *self_frac, go.alloc_mb, *host_ns* and
# trace.overhead_frac. The export is removed on exit.
#
# Exit status: 0 when nothing differs, 1 when something does, 2 when the
# arguments are wrong or a benchmark run fails. Needs git, tar and jq.
set -euo pipefail
export LC_ALL=C

if [ $# -lt 1 ]; then
	echo "usage: $0 <base-rev> [workload ...]" >&2
	exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
name=$1
rev=$(git -C "$root" rev-parse --verify --quiet "$1^{commit}") || {
	echo "ledger-diff: unknown revision $1" >&2
	exit 2
}
shift
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
	workloads=(tsp kv-zipf shard-stream kv-crash)
fi

base="$root/.bench_build/ledger-base"
rm -rf "$base"
mkdir -p "$base"
trap 'rm -rf "$base"' EXIT
git -C "$root" archive "$rev" | tar -x -C "$base"

skip='^(setup_s|go\.alloc_mb|trace\.overhead_frac)$|^host_|self_frac$|host_ns'

# figures <tree> <workload>: one "name value" line per deterministic
# figure, sorted by name.
figures() {
	local tree=$1 w=$2 ledger e2e
	ledger=$(bash "$tree/perfbench/run.sh" --workload "$w" --seed 1 --seconds 2 --trace 1) || return 2
	e2e=$(bash "$tree/perfbench/run.sh" --workload "$w" --seed 1 --seconds 0.1 --trace 0) || return 2
	printf '%s\n%s\n' "$(tail -n 1 <<<"$ledger")" "$(tail -n 1 <<<"$e2e")" |
		jq -r --arg skip "$skip" '.metrics | to_entries[] | select(.key | test($skip) | not) | "\(.key) \(.value.value)"' |
		sort
}

status=0
for w in "${workloads[@]}"; do
	old=$(figures "$base" "$w") || exit 2
	new=$(figures "$root" "$w") || exit 2
	diffs=$(join -a 1 -a 2 -e '-' -o 0,1.2,2.2 <(echo "$old") <(echo "$new") | awk '$2 != $3')
	if [ -z "$diffs" ]; then
		echo "$w: $(wc -l <<<"$new") figures, no difference"
		continue
	fi
	status=1
	echo "$w: differs (figure, $name, current checkout):"
	sed 's/^/  /' <<<"$diffs"
done
exit $status
