#!/usr/bin/env sh
# Durability certification matrix: every cell runs a concurrent banking
# workload on driver stripes {1, 4, 16} through the one-lane segmented
# write-ahead log, then certifies recovery of that log with rsrecover.
# A damage leg then tears the log's last segment and asserts rsrecover
# diagnoses it deterministically: exit 3 and a torn-tail JSON error
# naming the same segment and offset on every run.
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

# ---- damage leg: deterministic torn-tail diagnosis ------------------
dmg="$OUT/damage"
mkdir -p "$dmg"
if ! "$RSSIM" -workload banking -concurrent -shards 4 -seed 7 \
	-wal "$dmg/waldir" -wal-segments 512 >"$dmg/rssim.log" 2>&1; then
	fail "damage: rssim failed"
	cat "$dmg/rssim.log" >&2
else
	# Tear the last segment three bytes short: the report must name the
	# same segment and offset, run after run.
	seg="$(ls "$dmg/waldir/shard-00"/seg-*.wal | sort | tail -1)"
	truncate -s -3 "$seg"
	first=""
	for i in 1 2 3; do
		"$RSRECOVER" -wal "$dmg/waldir" \
			>"$dmg/recover.log" 2>"$dmg/recover.err"
		rc=$?
		[ "$rc" -eq 3 ] || fail "damage run $i: expected exit 3, got $rc"
		grep -q '"error":"torn-tail"' "$dmg/recover.err" ||
			fail "damage run $i: stderr lacks torn-tail JSON"
		where="$(grep -o '"segment":[0-9]*,"offset":[0-9]*' "$dmg/recover.err")"
		[ -n "$where" ] || fail "damage run $i: JSON names no segment and offset (got: $(cat "$dmg/recover.err"))"
		[ -z "$first" ] && first="$where"
		[ "$where" = "$first" ] || fail "damage run $i: $where, first run $first"
	done
	[ "$fails" -eq 0 ] && note "damage leg ok ($first)"
fi

if [ "$fails" -gt 0 ]; then
	echo "durability-matrix: $fails failure(s); artifacts in $OUT" >&2
	exit 1
fi
note "all cells passed (artifacts in $OUT)"
