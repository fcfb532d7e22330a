#!/usr/bin/env bash
# Every output and stderr of the seeded lagdeconv commands for one source
# tree, written into DIR so that two trees compare with one `diff -r`:
#   bash .github/outputs.sh TREE DIR
# TREE/src goes on PYTHONPATH; OPENBLAS_CORETYPE, if set, picks the BLAS
# kernel.  The commands run inside DIR with relative stems, so the simulate
# manifests name the same paths for every tree.  Cases: the Table-1 CSV;
# README's demo cube (f2, 32^3) deconvolved six ways, the last at --rcond 0
# (rcond0: M = 32 and the projection keeps all 32 directions, so the time
# operator's M x r factor is square), and the norms of its kernel
# exp(-t/2); f3 on 1,024 frames of 8 x 8 (long), on 32 frames of
# 256 x 256 (scan256: sigma-hat's banded product and _median's partition
# branch) and on 64 frames at --M auto with perfbench's population AIF
# (auto_order: the m = 64 norm table of a kernel that is not phi_0); the
# scan256 cube again at --M auto (scan256_auto: M = 32 and J = 7, so both
# transforms run several slabs of a truncated block); and the demo cube
# again under the dotted stem demo.v1, deconvolved from demo.v1_Y (dotted:
# each of its six cube files is named by the whole stem); the demo cube
# fitted from its kernel's Laguerre coefficients (phi0: --kernel-coeffs
# with phi_0's (1, 0, ..., 0) at --M 8); and f3 on 16 frames of 24 x 20
# (non-dyadic) and of 16 x 12 (README's mixed example), each fitted with
# --symmetrize at --M 4 (sym_24x20, sym_16x12); and two odd frame counts,
# where Simpson's weights end in the 3/8 rule: f3 on 33 frames of 16 x 16
# at --M 8 and again at --M auto (odd33, odd33_auto), and f1 on 3 frames of
# 8 x 8 at --M 3 (odd3: the 3/8 rule is the whole weight vector).
# Five commands must fail; their stderr and exit code are compared too: a
# kernel of 1.7e308 (1), a Laguerre kernel with g_0 = 0 (3), --snr 1e-320
# (1), a kernel CSV whose header holds a Latin-1 byte (2) and one with a
# field of 131,073 characters, past csv's limit (2).  Every other command
# stops the script if it fails.
set -euo pipefail
tree=$(cd "$1" && pwd)
mkdir -p "$2"
cd "$2"
export PYTHONPATH="$tree/src"

python - <<'PY'
import numpy as np
def write(path, n, g):
    t = np.concatenate([[0.0], 5.0 * np.arange(1, n + 1) / n])
    np.savetxt(path, np.c_[t, g(t)], delimiter=",", header="t,value", comments="")
write("g.csv", 32, lambda t: np.exp(-t / 2))
write("g_long.csv", 1024, lambda t: np.exp(-t / 2))
write("g16.csv", 16, lambda t: np.exp(-t / 2))
write("g33.csv", 33, lambda t: np.exp(-t / 2))
write("g3.csv", 3, lambda t: np.exp(-t / 2))
write("g_aif.csv", 64,
      lambda t: (t / 0.7) ** 2.25 * np.exp(2.25 * (1 - t / 0.7)) + 0.3 * np.exp(-t / 3.5))
np.savetxt("g_big.csv", np.c_[5.0 * np.arange(1, 33) / 32, np.full(32, 1.7e308)],
           delimiter=",", header="t,value", comments="")
np.savetxt("phi0_coeffs.csv", np.c_[np.arange(8), np.r_[1.0, np.zeros(7)]],
           delimiter=",", header="index,value", comments="")
np.savetxt("g0_coeffs.csv", np.c_[np.arange(8), np.r_[0.0, np.ones(7)]],
           delimiter=",", header="index,value", comments="")
body = open("g.csv").read().split("\n", 1)[1]
open("g_latin1.csv", "wb").write(("t,value in \u00b5M\n" + body).encode("latin-1"))
open("g_long_field.csv", "w").write("t," + "v" * 131073 + "\n" + body)
PY

cli() { python -m lagdeconv.cli "$@"; }
cli bench-table1 --runs 100 --seed 1234 > table1.csv 2> table1.err
cli simulate --function f2 --snr 5 --seed 7 --n 32 --T 5 --out demo > /dev/null 2> demo.err
for run in M8:--M=8 Mauto:--M=auto nothr:--no-threshold eps0:--eps=0 eps2:--eps=2 \
           rcond0:--rcond=0; do
  name=${run%%:*}
  cli deconvolve --input demo_Y --kernel g.csv "${run#*:}" --out "fhat_$name" \
    --diagnostics "diag_$name.json" > /dev/null 2> "$name.err"
done
cli norms --kernel g.csv --max-m 32 --out norms.csv > /dev/null 2> norms.err

f3_case() {  # name, kernel CSV, --M, then simulate's grid flags
  local name=$1 kernel=$2 M=$3
  shift 3
  cli simulate --function f3 --snr 5 --seed 7 "$@" --out "$name" > /dev/null 2> "$name.err"
  cli deconvolve --input "${name}_Y" --kernel "$kernel" --M "$M" --out "fhat_$name" \
    --diagnostics "diag_$name.json" > /dev/null 2>> "$name.err"
}
f3_case long g_long.csv 8 --n 1024 --n1 8 --n2 8 --T 5
f3_case scan256 g.csv 8 --n 32 --n1 256 --n2 256
f3_case auto_order g_aif.csv auto --n 64
cli deconvolve --input scan256_Y --kernel g.csv --M auto --out fhat_scan256_auto \
  --diagnostics diag_scan256_auto.json > /dev/null 2> scan256_auto.err
cli simulate --function f2 --snr 5 --seed 7 --n 32 --T 5 --out demo.v1 > /dev/null 2> dotted.err
cli deconvolve --input demo.v1_Y --kernel g.csv --M 8 --out fhat_dotted.v1 \
  --diagnostics diag_dotted.json > /dev/null 2>> dotted.err
cli deconvolve --input demo_Y --kernel-coeffs phi0_coeffs.csv --M 8 --out fhat_phi0 \
  --diagnostics diag_phi0.json > /dev/null 2> phi0.err
f3_case odd33 g33.csv 8 --n 33 --n1 16 --n2 16
cli deconvolve --input odd33_Y --kernel g33.csv --M auto --out fhat_odd33_auto \
  --diagnostics diag_odd33_auto.json > /dev/null 2> odd33_auto.err
cli simulate --function f1 --snr 5 --seed 7 --n 3 --n1 8 --n2 8 --out odd3 > /dev/null 2> odd3.err
cli deconvolve --input odd3_Y --kernel g3.csv --M 3 --out fhat_odd3 \
  --diagnostics diag_odd3.json > /dev/null 2>> odd3.err
for sides in 24:20 16:12; do
  name=sym_${sides/:/x}
  cli simulate --function f3 --snr 5 --seed 7 --n 16 --n1 "${sides%:*}" --n2 "${sides#*:}" \
    --out "$name" > /dev/null 2> "$name.err"
  cli deconvolve --input "${name}_Y" --kernel g16.csv --M 4 --symmetrize --out "fhat_$name" \
    --diagnostics "diag_$name.json" > /dev/null 2>> "$name.err"
done

fails() {  # name, then a command that must fail: its stderr and exit code
  local name=$1 code=0
  shift
  cli "$@" > /dev/null 2> "$name.err" || code=$?
  echo "$code" > "$name.exit"
  [ "$code" -ne 0 ]
}
fails big_kernel deconvolve --input demo_Y --kernel g_big.csv --M 8 --out fhat_big_kernel
fails g0_coeffs deconvolve --input demo_Y --kernel-coeffs g0_coeffs.csv --M 8 --out fhat_g0
fails tiny_snr simulate --function f2 --snr 1e-320 --out tiny_snr
fails latin1_kernel deconvolve --input demo_Y --kernel g_latin1.csv --M 8 --out fhat_latin1
fails long_field norms --kernel g_long_field.csv
