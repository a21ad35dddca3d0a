#!/bin/sh
# Regeneration check: build pimnetbench, run one full paper regeneration
# (`pimnetbench -fig all`), print its wall time, and fail unless stdout's
# sha256 equals the committed digest in bench/testdata/regen.sha256. The
# digest file is only read, never written: a deliberate output change
# updates it by hand, in the same change that explains it.
# `make regen-check` runs it.
set -eu

digest=bench/testdata/regen.sha256
workdir=$(mktemp -d /tmp/pimnet-regen-check.XXXXXX)
cleanup() { rm -rf "$workdir"; }
trap cleanup EXIT INT TERM

# Wall clock in milliseconds; second resolution where date has no %N.
now_ms() {
    t=$(date +%s%N)
    case $t in
    *N) echo $(( ${t%N} * 1000 )) ;;
    *) echo $(( t / 1000000 )) ;;
    esac
}

sha256() {
    if command -v sha256sum > /dev/null 2>&1; then
        sha256sum "$1" | cut -d' ' -f1
    else
        shasum -a 256 "$1" | cut -d' ' -f1
    fi
}

go build -o "$workdir/pimnetbench" ./cmd/pimnetbench

start=$(now_ms)
"$workdir/pimnetbench" -fig all > "$workdir/stdout" \
    || { echo "regen-check: FAIL: pimnetbench -fig all exited non-zero" >&2; exit 1; }
end=$(now_ms)
echo "regen-check: pimnetbench -fig all wall time $(( end - start )) ms"

want=$(tr -d ' \n' < "$digest")
got=$(sha256 "$workdir/stdout")
if [ "$got" != "$want" ]; then
    echo "regen-check: FAIL: stdout sha256 $got, want $want ($digest)" >&2
    exit 1
fi
echo "regen-check: OK: stdout sha256 matches $digest"
