#!/usr/bin/env bash
# Paired, alternating runs of one repository-benchmark workload: a base
# commit against the working tree.
#
#   scripts/bench-ab.sh <base-ref> <workload> <pairs> [seed]
#
# The base is exported (git archive) under .bench_build/ab/base-<sha>/,
# replacing the export of any other base, and the working tree's tracked and
# unignored files are copied to .bench_build/ab/head-<sha of HEAD>/ at the
# start of every call. Both sides are built by their own benchmark/run.sh,
# so each builds and writes under a .bench_build/ of its own; the head's
# source is a snapshot, so editing the tree during a call does not reach
# its runs. Pair i runs the base first when i is odd and the
# head first when i is even, which keeps slow drift of a shared host from
# landing on one side. Every run's last-line JSON is kept under
# .bench_build/ab/<workload>.seed<seed>.trace<0|1>/, each end-to-end metric is printed
# pair by pair, and the summary gives q1/median/q3 per side and the pairs the
# head won — the form benchmark/README.md asks a claim to be reported in.
#
# BENCH_SECONDS (default 20, BENCHMARK.json's run_seconds) and BENCH_TRACE
# (default 0; 1 compares the per-layer metrics instead) adjust the runs.
set -euo pipefail
if [ $# -lt 3 ] || [ $# -gt 4 ]; then
	echo "usage: $0 <base-ref> <workload> <pairs> [seed]" >&2
	exit 2
fi
base_ref=$1 workload=$2 pairs=$3 seed=${4:-1}
seconds=${BENCH_SECONDS:-20} trace=${BENCH_TRACE:-0}
cd "$(dirname "$0")/.."
base_sha=$(git rev-parse --verify "$base_ref^{commit}")
ab="$PWD/.bench_build/ab"
# The two sides' directories have names of one length, so their binaries run
# with path, argument and environment strings of one length; those strings
# sit on the initial stack, whose layout moves with their size. While the
# head ran from the checkout, the parent A/B'd against itself read the head
# 3-5% slower in cand_per_s, in 5 of 6 pairs, on two workloads.
base_dir="$ab/base-$base_sha"
head_dir="$ab/head-$(git rev-parse HEAD)"
out="$ab/$workload.seed$seed.trace$trace"
mkdir -p "$out"
# Exports of other bases and heads, and any half-written export an
# interrupted run left, are removed; the current base's export is kept, so
# the runs of several workloads against one base share its build.
for d in "$ab"/base-* "$ab"/head-*; do
	[ "$d" = "$base_dir" ] || [ "$d" = "$head_dir" ] || rm -rf "$d"
done
if [ ! -d "$base_dir" ]; then
	mkdir -p "$base_dir.tmp"
	git archive "$base_sha" | tar -x -C "$base_dir.tmp"
	mv "$base_dir.tmp" "$base_dir"
fi
# The head's snapshot keeps only its .bench_build/ (the build cache) from
# the previous call. A tracked file deleted from the tree is left out.
mkdir -p "$head_dir"
find "$head_dir" -mindepth 1 -maxdepth 1 ! -name .bench_build -exec rm -rf {} +
git ls-files -z --cached --others --exclude-standard |
	while IFS= read -r -d '' f; do if [ -e "$f" ]; then printf '%s\0' "$f"; fi; done |
	tar --null -T - -cf - | tar -x -C "$head_dir"

# run <side> <dir> <pair>: one benchmark run; a failed run stops the script
# with the run's own report on the terminal. Both sides build with
# -trimpath and -buildvcs=false: otherwise each binary embeds its side's
# source paths (which moved the layout of the whole binary while the head
# built in the checkout), so two sides built from one commit differed in
# more than their code. With them the two are byte-identical.
run() {
	local side=$1 dir=$2 pair=$3 log
	log="$out/$side.$pair.log"
	if ! GOFLAGS="${GOFLAGS:+$GOFLAGS }-trimpath -buildvcs=false" bash "$dir/benchmark/run.sh" \
		--workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" >"$log" 2>&1; then
		cat "$log" >&2
		echo "bench-ab: $side run of pair $pair failed" >&2
		exit 1
	fi
	tail -n 1 "$log" >"$out/$side.$pair.json"
	jq -e '.correct and .failed == 0' "$out/$side.$pair.json" >/dev/null ||
		{ echo "bench-ab: $side run of pair $pair: not correct or failed operations" >&2; exit 1; }
}

echo "base $base_sha vs working tree, $workload, seed $seed, $pairs pairs of ${seconds}s runs, trace $trace"
for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		run base "$base_dir" "$i"
		run head "$head_dir" "$i"
	else
		run head "$head_dir" "$i"
		run base "$base_dir" "$i"
	fi
	echo "pair $i done"
done

# Which way is better comes from BENCHMARK.json; a metric it does not list
# (none today) is reported without wins. An end-to-end metric also gets a
# verdict against its bound there, the relative amount by which the head's
# median may be worse than the base's: "unresolved" when the base's own
# q1-q3 spread is wider than that amount, unless every head run beats every
# base run.
for metric in $(jq -r '.metrics | keys[]' "$out/head.1.json"); do
	better=$(jq -r --arg m "$metric" \
		'[.end_to_end[], .per_layer[]] | map(select(.name == $m)) | .[0].better // "?"' BENCHMARK.json)
	bound=$(jq -r --arg m "$metric" '.end_to_end | map(select(.name == $m)) | .[0].bound // ""' BENCHMARK.json)
	echo
	echo "$metric ($(jq -r --arg m "$metric" '.metrics[$m].unit' "$out/head.1.json"), $better is better)"
	for i in $(seq 1 "$pairs"); do
		printf '%s %s %s\n' "$i" \
			"$(jq -r --arg m "$metric" '.metrics[$m].value' "$out/base.$i.json")" \
			"$(jq -r --arg m "$metric" '.metrics[$m].value' "$out/head.$i.json")"
	done | awk -v better="$better" -v bound="$bound" '
		function quartile(v, n, q,    pos, lo, frac) {
			pos = (n - 1) * q; lo = int(pos); frac = pos - lo
			return lo + 1 < n ? v[lo + 1] * (1 - frac) + v[lo + 2] * frac : v[n]
		}
		function summarize(name, v, n,    i, j, t) {
			for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
			printf "  %-4s q1 %.6g  median %.6g  q3 %.6g\n", name, quartile(v, n, 0.25), quartile(v, n, 0.5), quartile(v, n, 0.75)
			return quartile(v, n, 0.5)
		}
		{
			printf "  pair %2d  base %-14.6g head %-14.6g\n", $1, $2, $3
			b[NR] = $2; h[NR] = $3
			if ($2 != $3 && ((better == "higher") == ($3 > $2))) wins++
			if ($2 == $3) ties++
		}
		END {
			mb = summarize("base", b, NR); mh = summarize("head", h, NR)
			if (mb != 0) printf "  head/base median ratio %.3f", mh / mb
			if (better != "?") printf "   head better in %d of %d pairs (%d ties)", wins, NR, ties
			printf "\n"
			if (bound == "" || better == "?") exit
			# summarize sorted b and h in place: [1] is the least run, [NR] the greatest.
			beats = better == "higher" ? h[1] > b[NR] : h[NR] < b[1]
			worse = better == "higher" ? mh < mb * (1 - bound) : mh > mb * (1 + bound)
			if (!beats && quartile(b, NR, 0.75) - quartile(b, NR, 0.25) > bound * mb) verdict = "unresolved"
			else if (worse) verdict = "worse than bound"
			else verdict = "within bound"
			printf "  verdict: %s (bound %g of the base median)\n", verdict, bound
		}'
done
