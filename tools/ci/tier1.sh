#!/usr/bin/env bash
# Tier-1 verification flow (see ROADMAP.md). Since the kernel layer ships
# dispatch-selected variants whose streams must be identical in every build
# flavor, tier-1 builds and tests BOTH TRANSPWR_NATIVE configurations, then
# runs the decoder-robustness fuzz targets under ASan+UBSan with the native
# kernels forced on.
#
# Usage: tools/ci/tier1.sh [build-root]   (default: ci-build under the repo)
set -euo pipefail

repo="$(cd "$(dirname "$0")/../.." && pwd)"
root="${1:-$repo/ci-build}"
jobs="$(nproc 2>/dev/null || echo 4)"

run_config() {
  local name="$1"; shift
  local dir="$root/$name"
  echo "=== tier-1 [$name]: configure + build + ctest ==="
  cmake -B "$dir" -S "$repo" "$@"
  cmake --build "$dir" -j "$jobs"
  ctest --test-dir "$dir" --output-on-failure -j "$jobs"
}

# Both dispatch build flavors: the portable baseline every artifact ships
# as, and the host-tuned build the native kernels are written for. The
# kernels ctest label inside each run pins generic-vs-native bit identity.
run_config baseline
run_config native -DTRANSPWR_NATIVE=ON

# ASan+UBSan fuzz soak against the native kernels: every decoder fed
# mutated streams with the fast paths (pair-table Huffman, tiled Lorenzo,
# batched zfp lifts) active. Iteration count overridable for quick local runs.
echo "=== tier-1 [asan-ubsan]: fuzz soak, native kernels ==="
asan="$root/asan-ubsan"
iters="${TRANSPWR_CI_FUZZ_ITERS:-10000}"
cmake -B "$asan" -S "$repo" -DTRANSPWR_SANITIZE=address,undefined
cmake --build "$asan" --target fuzz_decode -j "$jobs"
TRANSPWR_KERNELS=native "$asan/tools/conformance/fuzz_decode" --iters "$iters"

# Archive-cache smoke under the same sanitizers: the mmap-backed reader,
# lazy per-chunk verification, and the shared decoded-chunk LRU cache with
# ASan armed. The concurrent-reader hammer test doubles as a
# use-after-free probe on evicted-but-still-referenced cache entries (the
# tsan ctest label marks the same tests for -DTRANSPWR_SANITIZE=thread).
# The chunked container and the slab engine both slab containers share
# run here too, so the ordered fan-out and the ROI path get ASan as well.
echo "=== tier-1 [asan-ubsan]: archive cache smoke ==="
cmake --build "$asan" --target test_chunk_cache test_archive test_chunked \
  test_slab -j "$jobs"
"$asan/tests/test_chunk_cache"
"$asan/tests/test_archive"
"$asan/tests/test_chunked"
"$asan/tests/test_slab"

# Codec hot path under the same sanitizers with the native kernels forced
# on: the fused SIMD inverse map (every body the host runs against the
# scalar one), the plane-pipelined 3-D SZ sweeps at several thread counts
# and from pool workers, the word-level sign RLE, and the corpus cases
# that pin the decoders' rejections.
echo "=== tier-1 [asan-ubsan]: codec hot path, native kernels ==="
hot_path_tests="test_sz test_sz_pipeline test_rle test_thread_determinism
  test_kernel_identity test_corpus_regression"
# shellcheck disable=SC2086  # word splitting of the list is intended
cmake --build "$asan" --target $hot_path_tests -j "$jobs"
for t in $hot_path_tests; do
  TRANSPWR_KERNELS=native "$asan/tests/$t"
done

# Serve loopback smoke under the same sanitizers: a real Server on
# ephemeral loopback ports, concurrent TPRQ1 clients, every HTTP route,
# malformed-frame handling, and the graceful drain — the whole
# thread-per-connection surface (accept loops, shared registry handles,
# wake-pipe shutdown) with ASan+UBSan armed, plus both wire parsers:
# TPRQ1 framing and the HTTP facade's request parser. The tsan ctest
# label marks the loopback test for a -DTRANSPWR_SANITIZE=thread build.
echo "=== tier-1 [asan-ubsan]: serve loopback smoke ==="
cmake --build "$asan" --target test_serve_loopback test_net_protocol \
  test_net_http -j "$jobs"
"$asan/tests/test_net_protocol"
"$asan/tests/test_net_http"
"$asan/tests/test_serve_loopback"

# Query smoke under the same sanitizers: compressed-domain analytics over
# TPAR v2 summary blocks — the differential query-vs-scan suite plus the
# footer bit-flip / truncation / resealed-checksum corruption cases, so
# every summary-parsing and chunk-pruning path runs with ASan+UBSan armed.
echo "=== tier-1 [asan-ubsan]: query smoke ==="
cmake --build "$asan" --target test_query -j "$jobs"
"$asan/tests/test_query"

# CLI under the same sanitizers: every subcommand end to end, including
# `info` on hostile CHK1 headers (nd past 3, unknown dtype and scheme
# bytes), so a header parse that reads past its arrays trips ASan.
echo "=== tier-1 [asan-ubsan]: cli smoke ==="
cmake --build "$asan" --target test_cli -j "$jobs"
"$asan/tests/test_cli"

# Hunter smoke under the same sanitizers: a bounded sweep of the
# adversarial bound-violation hunter (fixed seed, every scheme x edge
# family) with the native kernels on, so guarantee-surface arithmetic runs
# once per CI with UB detection armed. The unsanitized smoke already ran
# twice above via `ctest` (label: hunter). The deep soak is
# tools/ci/hunter_soak.sh.
echo "=== tier-1 [asan-ubsan]: hunter smoke, native kernels ==="
cmake --build "$asan" --target hunter -j "$jobs"
TRANSPWR_KERNELS=native "$asan/tools/hunter/hunter" \
  --max-points 256 --bound 1e-2 --bound 1e-4 --bound 2.5e-5

echo "tier-1: all configurations green"
