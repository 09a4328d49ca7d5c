#!/usr/bin/env sh
# Durability certification matrix: every cell runs a concurrent banking
# workload through the segmented write-ahead log, then certifies
# recovery of that log with rsrecover — shards (= lanes) in {1, 4, 16}.
# A damage leg then tears two lanes' tails and asserts
# rsrecover diagnoses the *first failing shard* deterministically in
# its structured JSON error (exit 3, "shard": lowest torn lane), and
# that -shard filters a recovery to one lane.
#
# RACE=1 builds the binaries under the race detector (the CI job does).
# Artifacts (logs, WAL images, recovery reports) land in $OUT
# (default: a mktemp dir, kept on failure for upload).
set -u

RACE_FLAG=""
[ "${RACE:-0}" = "1" ] && RACE_FLAG="-race"
OUT="${OUT:-$(mktemp -d)}"
mkdir -p "$OUT/bin"
fails=0

note() { echo "durability-matrix: $*"; }
fail() {
	echo "durability-matrix: FAIL: $*" >&2
	fails=$((fails + 1))
}

# go run masks the program's exit status (always 1 on nonzero), so the
# damage leg's exit-code assertions need real binaries.
# shellcheck disable=SC2086
go build $RACE_FLAG -o "$OUT/bin/rssim" ./cmd/rssim || exit 1
# shellcheck disable=SC2086
go build $RACE_FLAG -o "$OUT/bin/rsrecover" ./cmd/rsrecover || exit 1
RSSIM="$OUT/bin/rssim"
RSRECOVER="$OUT/bin/rsrecover"

for shards in 1 4 16; do
	cell="shards=$shards"
	dir="$OUT/shards-$shards"
	mkdir -p "$dir"
	if ! "$RSSIM" -workload banking -concurrent -shards "$shards" \
		-seed 7 -wal "$dir/waldir" >"$dir/rssim.log" 2>&1; then
		fail "$cell: rssim failed (see $dir/rssim.log)"
		cat "$dir/rssim.log" >&2
		continue
	fi
	if ! "$RSRECOVER" -wal "$dir/waldir" -strict \
		>"$dir/recover.log" 2>"$dir/recover.err"; then
		fail "$cell: rsrecover -strict nonzero (see $dir/recover.err)"
		cat "$dir/recover.err" >&2
		continue
	fi
	if ! grep -q ' 0 unfinished, 0 orphans' "$dir/recover.log"; then
		fail "$cell: recovery report not clean: $(head -1 "$dir/recover.log")"
		continue
	fi
	note "$cell ok"
done

# ---- damage leg: deterministic first-failing-shard diagnosis --------
dmg="$OUT/damage"
mkdir -p "$dmg"
if ! "$RSSIM" -workload banking -concurrent -shards 4 -seed 7 \
	-wal "$dmg/waldir" >"$dmg/rssim.log" 2>&1; then
	fail "damage: rssim failed"
	cat "$dmg/rssim.log" >&2
else
	# Tear the tails of shards 3 and 1: the report must name shard 1
	# (lowest torn lane), run after run.
	for lane in 3 1; do
		seg="$(ls "$dmg/waldir/shard-0$lane"/seg-*.wal | sort | tail -1)"
		truncate -s -3 "$seg"
	done
	for i in 1 2 3; do
		"$RSRECOVER" -wal "$dmg/waldir" \
			>"$dmg/recover.log" 2>"$dmg/recover.err"
		rc=$?
		[ "$rc" -eq 3 ] || fail "damage run $i: expected exit 3, got $rc"
		grep -q '"error":"torn-tail"' "$dmg/recover.err" ||
			fail "damage run $i: stderr lacks torn-tail JSON"
		grep -q '"shard":1' "$dmg/recover.err" ||
			fail "damage run $i: JSON does not name shard 1 (got: $(cat "$dmg/recover.err"))"
	done
	# -shard filters to one lane: lane 0 is undamaged (exit 0), lane 1
	# is torn (exit 3).
	"$RSRECOVER" -wal "$dmg/waldir" -shard 0 >/dev/null 2>&1 ||
		fail "-shard 0 on undamaged lane: expected exit 0"
	"$RSRECOVER" -wal "$dmg/waldir" -shard 1 >/dev/null 2>&1
	rc=$?
	[ "$rc" -eq 3 ] || fail "-shard 1 on torn lane: expected exit 3, got $rc"
	[ "$fails" -eq 0 ] && note "damage leg ok"
fi

if [ "$fails" -gt 0 ]; then
	echo "durability-matrix: $fails failure(s); artifacts in $OUT" >&2
	exit 1
fi
note "all cells passed (artifacts in $OUT)"
