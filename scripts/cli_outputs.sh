#!/bin/sh
# Regenerate the recorded CLI outputs: pt (with its curve), convergence and
# solve for each solver, the oracle solve's estimate as CSV, a pt on
# quasi_toeplitz, and a WHT solve (both transforms behind their column signs).
#
#   scripts/cli_outputs.sh DIR            write the 18 files into DIR
#   scripts/cli_outputs.sh --check DIR    also compare them with cli_outputs.sha256,
#                                         and fail on a pt_*, curve_*, conv_* or
#                                         solve_* file in DIR that it does not list
#
# The bytes depend on the numpy/BLAS build, so the comparison holds only on
# the build the checksums were recorded with; without --check the script only
# shows that every command runs.  The commands' stderr goes to
# DIR/cli_outputs.log; a failing command also prints its last lines.
set -eu

check=0
if [ "${1:-}" = "--check" ]; then
    check=1
    shift
fi
if [ $# -ne 1 ]; then
    echo "usage: $0 [--check] DIR" >&2
    exit 2
fi

here=$(cd "$(dirname "$0")" && pwd)
mkdir -p "$1"
cd "$1"
: > cli_outputs.log
ssamp() {
    PYTHONPATH="$here/../src${PYTHONPATH:+:$PYTHONPATH}" python3 -m ssamp.cli "$@" \
        2>>cli_outputs.log || {
        tail -n 3 cli_outputs.log >&2
        return 1
    }
}

cat > cfg_pt.json <<'EOF'
{"n": 200, "grid_m_over_n": [0.3, 0.5], "grid_k_over_m": [0.1, 0.3, 0.6], "trials": 3, "max_iters": 300}
EOF
cat > cfg_conv.json <<'EOF'
{"n": 300, "grid_m_over_n": [0.3, 0.5], "grid_k_over_m": [0.1, 0.2], "trials": 2, "max_iters": 40, "delta": 1e-10}
EOF

for s in ssamp_oracle ssamp_em tvamp; do
    ssamp pt cfg_pt.json --solver "$s" --out "pt_$s.csv" --curve-out "curve_$s.csv"
    ssamp convergence cfg_conv.json --solver "$s" --out "conv_$s.csv"
    ssamp solve cfg_conv.json --solver "$s" --out "solve_$s.json"
done
ssamp solve cfg_conv.json --out solve_ssamp_oracle.csv
ssamp pt cfg_pt.json --matrix quasi_toeplitz --out pt_quasi_toeplitz.csv
ssamp solve --n 256 --matrix subsampled_wht --out solve_subsampled_wht.json

if [ "$check" -eq 1 ]; then
    unlisted=0
    for f in pt_* curve_* conv_* solve_*; do
        if [ -e "$f" ] && ! cut -d' ' -f3 "$here/cli_outputs.sha256" | grep -qxF "$f"; then
            echo "$f: not listed in cli_outputs.sha256" >&2
            unlisted=1
        fi
    done
    sha256sum -c "$here/cli_outputs.sha256"
    exit "$unlisted"
fi
