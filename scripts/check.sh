#!/usr/bin/env bash
# Tier-1 verification: deepstore_lint first (cheapest signal), then a
# normal RelWithDebInfo build+test run with warnings-as-errors, then
# the same suite under AddressSanitizer + UBSan (the
# DEEPSTORE_SANITIZE CMake option). Usage: scripts/check.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

echo "=== tier-1: normal build (-Werror) ==="
cmake -B build -S . -DDEEPSTORE_WERROR=ON >/dev/null
cmake --build build -j "$JOBS"

# Run the determinism linter before the test suites: a D-rule
# violation is a faster, more precise explanation of a replay
# divergence than a failing golden-tick pin. The run also leaves a
# machine-readable report for CI to archive.
echo
echo "=== static analysis: deepstore_lint ==="
build/tools/lint/deepstore_lint --root . --json > build/lint_report.json
build/tools/lint/deepstore_lint --root .

echo
echo "=== tier-1: test suite ==="
ctest --test-dir build --output-on-failure -j "$JOBS"

echo
echo "=== tier-1: sanitized build (address;undefined) ==="
cmake -B build-san -S . \
    -DDEEPSTORE_SANITIZE="address;undefined" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build build-san -j "$JOBS"
ctest --test-dir build-san --output-on-failure -j "$JOBS"

echo
echo "check.sh: lint + both test runs passed"
