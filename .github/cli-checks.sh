#!/usr/bin/env bash
# Console-script checks: `simulate`, `pack` and `report` end to end on the
# demo data, then the inputs each command must refuse with exit 2, then a
# retry that outgrows its site and moves to another.
#
# Usage, from the repository root:
#   .github/cli-checks.sh OUTDIR CMD...
# OUTDIR is created and should be empty; CMD... runs the console script, e.g.
#   .github/cli-checks.sh "$RUNNER_TEMP/cli" hpcbundle
#   PYTHONPATH=src .github/cli-checks.sh /tmp/cli python3 -m hpcbundle.cli
set -euo pipefail

out=$1
shift
hpc=("$@")
sites=demos/data/sites.txt
workload=demos/data/workload.csv
mkdir -p "$out"

fail() {
  echo "error: $*" >&2
  exit 1
}

"${hpc[@]}" simulate --sites "$sites" --workload "$workload" --out "$out/sim"
"${hpc[@]}" pack --sites "$sites" --workload "$workload" --policy buffer=0 --site atlas --out "$out/pack"
"${hpc[@]}" report "$out/sim/jobs.csv" > "$out/report.txt"
cat "$out/report.txt"
# jobs.csv carries no bundle-level field, so report must print none.
if grep -E '^(bundles|timeouts|rebinds|core-min)' "$out/report.txt"; then
  fail "report printed a bundle-level line"
fi
# Every bundle directory, and the pack output, runs under GNU make, as a site would run it.
for bundle in "$out"/sim/B*; do make -n -C "$bundle" > /dev/null; done
make -n -C "$out/pack" > /dev/null

# A workload with no jobs gives pack nothing to pack: exit 2 and no --out.
head -n 1 "$workload" > "$out/empty.csv"
rc=0; "${hpc[@]}" pack --sites "$sites" --workload "$out/empty.csv" --out "$out/pack-empty" || rc=$?
if [ "$rc" -ne 2 ] || [ -e "$out/pack-empty" ]; then
  fail "pack on an empty workload gave exit $rc or left --out behind"
fi

# A fault target that names no job is refused before --out exists.
{ cat "$sites"; printf '\n[fault]\nkind = NODE_FAULT\ntarget = ghost\n'; } > "$out/ghost-sites.txt"
rc=0; "${hpc[@]}" simulate --sites "$out/ghost-sites.txt" --workload "$workload" --out "$out/ghost" || rc=$?
if [ "$rc" -ne 2 ] || [ -e "$out/ghost" ]; then
  fail "a ghost fault target gave exit $rc or left --out behind"
fi

# A NaN heartbeat factor, which would cancel every bundle at every tick, is refused before --out exists.
rc=0; "${hpc[@]}" simulate --sites "$sites" --workload "$workload" --policy heartbeat=nan \
  --out "$out/nan-heartbeat" 2> "$out/nan-heartbeat.err" || rc=$?
cat "$out/nan-heartbeat.err"
if [ "$rc" -ne 2 ] || [ -e "$out/nan-heartbeat" ] || ! grep -q 'heartbeat_factor' "$out/nan-heartbeat.err"; then
  fail "heartbeat=nan gave exit $rc, left --out behind or named no heartbeat_factor"
fi

# A job is checked once, as its row is read, so the refusal names the row's line.
{ head -n 2 "$workload"; echo "J99,T,M,0,40,25,0"; } > "$out/no-cores.csv"
rc=0; "${hpc[@]}" simulate --sites "$sites" --workload "$out/no-cores.csv" --out "$out/no-cores" 2> "$out/no-cores.err" || rc=$?
cat "$out/no-cores.err"
if [ "$rc" -ne 2 ] || [ -e "$out/no-cores" ] || ! grep -q 'line 3:' "$out/no-cores.err"; then
  fail "a row with no cores gave exit $rc, left --out behind or named no line 3"
fi

# A directory given as an input file is refused before --out exists.
rc=0; "${hpc[@]}" simulate --sites "$out" --workload "$workload" --out "$out/dir-sites" || rc=$?
if [ "$rc" -ne 2 ] || [ -e "$out/dir-sites" ]; then
  fail "a directory as --sites gave exit $rc or left --out behind"
fi

# A byte that is not UTF-8 is refused with the line it is on.
{ head -n 2 "$workload"; printf 'J99,T\377,M,1,40,25,0\n'; } > "$out/bad-byte.csv"
rc=0; "${hpc[@]}" simulate --sites "$sites" --workload "$out/bad-byte.csv" --out "$out/bad-byte" 2> "$out/bad-byte.err" || rc=$?
cat "$out/bad-byte.err"
if [ "$rc" -ne 2 ] || [ -e "$out/bad-byte" ] || ! grep -q 'line 3:' "$out/bad-byte.err"; then
  fail "a 0xff byte on row 3 gave exit $rc, left --out behind or named no line 3"
fi

# A jobs table with a byte that is not UTF-8 is refused with its file and line.
{ head -n 2 "$out/sim/jobs.csv"; printf '\377'; tail -n +3 "$out/sim/jobs.csv"; } > "$out/bad-byte-jobs.csv"
rc=0; "${hpc[@]}" report "$out/bad-byte-jobs.csv" 2> "$out/bad-byte-jobs.err" || rc=$?
cat "$out/bad-byte-jobs.err"
if [ "$rc" -ne 2 ] || ! grep -q 'bad-byte-jobs.csv: line 3:' "$out/bad-byte-jobs.err"; then
  fail "a 0xff byte on line 3 of a jobs table gave exit $rc or named no file and line 3"
fi

# A jobs table row with a missing field, or with a turnaround that is not an
# integer, is refused with its file and line, not with a traceback.
{ head -n 2 "$out/sim/jobs.csv"; echo "J99,T99,M1,completed,1,0"; } > "$out/short-row-jobs.csv"
{ head -n 2 "$out/sim/jobs.csv"; echo "J99,T99,M1,completed,1,0,x"; } > "$out/bad-turnaround-jobs.csv"
for table in short-row bad-turnaround; do
  rc=0; "${hpc[@]}" report "$out/$table-jobs.csv" 2> "$out/$table-jobs.err" || rc=$?
  cat "$out/$table-jobs.err"
  if [ "$rc" -ne 2 ] || ! grep -q "$table-jobs.csv: line 3:" "$out/$table-jobs.err" \
    || grep -q 'Traceback' "$out/$table-jobs.err"; then
    fail "a $table jobs table gave exit $rc, named no file and line 3 or printed a traceback"
  fi
done

# A timeout doubles J1's request from 60 to 120 minutes: 125 with the 5-minute
# buffer outgrows `small`, so the retry moves to `big` (seed 1 binds J1 to `small`).
printf '[site small]\ncores_per_node = 4\nmax_walltime_minutes = 100\n\n[site big]\ncores_per_node = 4\nmax_walltime_minutes = 1000\n' > "$out/rebind-sites.txt"
printf 'job_id,test_id,model_id,cores,requested_minutes,true_runtime_minutes,arrival_minute\nJ1,T1,M1,1,60,90,0\n' > "$out/rebind.csv"
"${hpc[@]}" simulate --seed 1 --sites "$out/rebind-sites.txt" --workload "$out/rebind.csv" \
  --policy min_jobs=1 --out "$out/rebind" > "$out/rebind.txt"
cat "$out/rebind.txt"
grep -q ' BIND  *J1 -> small$' "$out/rebind/events.log" || fail "seed 1 did not bind J1 to small"
if [ "$(grep -c ' REBIND ' "$out/rebind/events.log")" -ne 1 ] \
  || ! grep -q ' REBIND  *J1 small -> big$' "$out/rebind/events.log" \
  || ! grep -q '^rebinds  *1$' "$out/rebind.txt"; then
  fail "the outgrown retry logged no single 'REBIND J1 small -> big' or no 'rebinds 1'"
fi
echo "console-script checks passed"
