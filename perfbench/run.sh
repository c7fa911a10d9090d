#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it, passing every
# argument through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-read --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the traced runs' span files stay inside
# the checkout, under .bench_build/perfbench. Nothing is downloaded: the
# benchmark module needs only the library next to it and the standard
# library.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)

# The fingerprint names the sources by their commit. Outside a git checkout
# it uses a digest of every Go file instead, and a checkout with uncommitted
# changes gets the commit, "-dirty" and that digest.
srcdigest() {
	find . -path ./.bench_build -prune -o -name '*.go' -print | LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16
}
export GIT_DIR="$root/.git" GIT_WORK_TREE="$root" GIT_CONFIG_NOSYSTEM=1
if commit=$(git rev-parse HEAD 2>/dev/null); then
	if [ -n "$(git status --porcelain 2>/dev/null)" ]; then
		commit="$commit-dirty-$(srcdigest)"
	fi
else
	commit="src-$(srcdigest)"
fi
unset GIT_DIR GIT_WORK_TREE
PERFBENCH_COMMIT="$commit" exec "$out/perfbench" "$@"
