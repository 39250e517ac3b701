#!/usr/bin/env bash
# Prints one sha256 line per reproduction output: every CSV and the
# console output of the paper figures (scorebench -scale medium -only
# fig2,fig3,fig4,ablations), and scoresim's output on each flag set below.
# Wall-clock fields are blanked before hashing: the "ms ring latency"
# figures of scoresim's per-shard lines and any ring_latency_ms column.
#
# CI compares the output with the committed digest:
#
#	bash .github/repro-digest.sh | diff .github/repro-digest.txt -
#
# A change that means to move a figure regenerates the digest in the same
# commit and says why:
#
#	bash .github/repro-digest.sh > .github/repro-digest.txt
set -euo pipefail

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
go build -o "$work/bin/" ./cmd/scorebench ./cmd/scoresim

strip_latency_column() {
	awk -F, -v OFS=, 'NR == 1 { for (i = 1; i <= NF; i++) if ($i == "ring_latency_ms") c = i }
		c && NR > 1 { $c = "" } { print }'
}

mkdir -p "$work/fig"
"$work/bin/scorebench" -scale medium -only fig2,fig3,fig4,ablations -out "$work/fig" >"$work/scorebench.txt"
echo "$(sha256sum <"$work/scorebench.txt" | cut -d' ' -f1)  scorebench stdout"
for f in "$work"/fig/*.csv; do
	echo "$(strip_latency_column <"$f" | sha256sum | cut -d' ' -f1)  scorebench $(basename "$f")"
done

flagsets=(
	"-policy hlf"
	"-policy rr"
	"-policy llf"
	"-policy random"
	"-policy hlf -loss 0.01"
	"-policy hlf -density 10 -seed 7"
	"-shards 4"
	"-autotune"
	"-topo fattree -k 8 -autotune"
	"-topo fattree -k 8 -autotune -density 10 -seed 7"
	"-autotune -racks 32 -hosts 8 -density 50"
	"-seed 3 -distributed-shards 1"
	"-seed 3 -distributed-shards 4"
)
for flags in "${flagsets[@]}"; do
	# shellcheck disable=SC2086 # the flag set splits into arguments
	sum=$("$work/bin/scoresim" $flags | sed -E 's/[0-9.]+ ms ring latency/ring latency/' | sha256sum | cut -d' ' -f1)
	echo "$sum  scoresim $flags"
done
